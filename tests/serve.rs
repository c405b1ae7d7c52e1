//! Integration tests for the streaming serve loop (`mmsec serve`): the
//! in-memory core in `mmsec_apps::serve`, and the binary end to end.

use mmsec_apps::ndjson::{parse_object, Value};
use mmsec_apps::serve::{serve, ServeConfig};
use mmsec_core::PolicyKind;
use mmsec_platform::{EdgeId, StretchReport};
use mmsec_platform::{Instance, Job, PlatformSpec, Simulation};
use std::io::Cursor;
use std::process::{Command, Stdio};

fn platform() -> Instance {
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 0.8])
        .cloud_pool(2)
        .build();
    Instance::new(spec, vec![]).unwrap()
}

/// Runs the serve loop over `lines` and returns the parsed output
/// records as (type, fields) pairs.
fn serve_lines(inst: &Instance, cfg: &ServeConfig, lines: &str) -> Vec<Vec<(String, Value)>> {
    let mut out = Vec::new();
    serve(inst, cfg, Cursor::new(lines.to_string()), &mut out, None).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| parse_object(l).unwrap())
        .collect()
}

fn kind_of(rec: &[(String, Value)]) -> &str {
    rec.iter()
        .find(|(k, _)| k == "type")
        .and_then(|(_, v)| v.as_str())
        .expect("every record has a type")
}

fn num(rec: &[(String, Value)], key: &str) -> f64 {
    rec.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_num())
        .unwrap_or_else(|| panic!("missing numeric field {key}"))
}

#[test]
fn round_trip_emits_admits_completions_heartbeats_and_summary() {
    let inst = platform();
    let input = r#"
{"origin": 0, "release": 1.0, "work": 2.0, "up": 0.5, "dn": 0.25}
{"origin": 1, "release": 2.0, "work": 1.0}
{"origin": 0, "release": 12.0, "work": 1.0}
"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);

    assert_eq!(kind_of(&recs[0]), "hello");
    let admits: Vec<_> = recs.iter().filter(|r| kind_of(r) == "admit").collect();
    let completions: Vec<_> = recs.iter().filter(|r| kind_of(r) == "completion").collect();
    let beats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "heartbeat").collect();
    assert_eq!(admits.len(), 3);
    assert_eq!(completions.len(), 3);
    assert!(!beats.is_empty(), "a 12s-horizon run must beat at 10s");

    // Heartbeat timestamps are strictly monotone.
    let times: Vec<f64> = beats.iter().map(|r| num(r, "now")).collect();
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "heartbeats not monotone: {times:?}"
    );

    // The summary agrees with the per-record counts.
    let summary = recs.last().unwrap();
    assert_eq!(kind_of(summary), "summary");
    assert_eq!(num(summary, "admitted"), 3.0);
    assert_eq!(num(summary, "completed"), 3.0);
    assert_eq!(num(summary, "rejected"), 0.0);
    let max_stretch = completions
        .iter()
        .map(|r| num(r, "stretch"))
        .fold(0.0, f64::max);
    assert!((num(summary, "max_stretch") - max_stretch).abs() < 1e-12);
}

#[test]
fn streamed_run_matches_batch_simulation() {
    // The same workload, streamed through serve vs. simulated in batch,
    // must produce identical completion times and stretches.
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 0.8])
        .cloud_pool(2)
        .build();
    let jobs = vec![
        Job::new(EdgeId(0), 1.0, 2.0, 0.5, 0.25),
        Job::new(EdgeId(1), 2.0, 1.0, 0.0, 0.0),
        Job::new(EdgeId(0), 4.5, 3.0, 1.0, 1.0),
    ];
    let batch_inst = Instance::new(spec, jobs.clone()).unwrap();
    let mut policy = PolicyKind::SsfEdf.build(0);
    let batch = Simulation::of(&batch_inst)
        .policy(policy.as_mut())
        .run()
        .unwrap();
    let report = StretchReport::new(&batch_inst, &batch.schedule);

    let input: String = jobs
        .iter()
        .map(|j| {
            format!(
                "{{\"origin\": {}, \"release\": {}, \"work\": {}, \"up\": {}, \"dn\": {}}}\n",
                j.origin.0, j.release, j.work, j.up, j.dn
            )
        })
        .collect();
    let recs = serve_lines(&platform(), &ServeConfig::default(), &input);
    let completions: Vec<_> = recs.iter().filter(|r| kind_of(r) == "completion").collect();
    assert_eq!(completions.len(), jobs.len());
    for rec in completions {
        let job = num(rec, "job") as usize;
        let batch_completion = batch.schedule.completion[job].unwrap().seconds();
        assert!((num(rec, "completion") - batch_completion).abs() < 1e-12);
        assert!((num(rec, "stretch") - report.stretches[job]).abs() < 1e-9);
    }
}

fn has_field(rec: &[(String, Value)], key: &str) -> bool {
    rec.iter().any(|(k, _)| k == key)
}

#[test]
fn heartbeats_carry_the_v4_stats_payload() {
    let inst = platform();
    let input = r#"
{"origin": 0, "release": 1.0, "work": 2.0, "up": 0.5, "dn": 0.25}
{"origin": 1, "release": 2.0, "work": 1.0}
{"origin": 0, "release": 25.0, "work": 1.0}
"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);
    let beats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "heartbeat").collect();
    assert!(
        beats.len() >= 2,
        "a 25s-horizon run must beat at 10s and 20s"
    );
    for beat in &beats {
        assert_eq!(num(beat, "v"), 4.0);
        for key in [
            "now",
            "pending",
            "running",
            "unfinished",
            "decides",
            "decide_skips",
            "admitted",
            "shed",
            "admitted_delta",
            "shed_delta",
            "completed_delta",
            "platform_version",
            "edges",
            "clouds",
            "tiers",
            "max_stretch",
        ] {
            assert!(has_field(beat, key), "heartbeat missing {key}");
        }
        // Virtual time only: no wall-clock field.
        assert!(!has_field(beat, "lag"));
    }
    // Counters are monotone across the stream, and the per-interval
    // completion deltas sum to the final completion total.
    for key in ["now", "decides", "completed", "admitted"] {
        let vals: Vec<f64> = beats.iter().map(|r| num(r, key)).collect();
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "heartbeat {key} not monotone: {vals:?}"
        );
    }
    let summary = recs.last().unwrap();
    let delta_sum: f64 = beats.iter().map(|r| num(r, "completed_delta")).sum();
    let last_beat_completed = beats.last().map(|r| num(r, "completed")).unwrap();
    assert_eq!(delta_sum, last_beat_completed);
    assert!(last_beat_completed <= num(summary, "completed"));
}

#[test]
fn stats_every_emits_records_on_the_line_cadence() {
    let inst = platform();
    let input = r#"
{"origin": 0, "release": 1.0, "work": 2.0}
{"origin": 1, "release": 2.0, "work": 1.0}
not json at all
{"origin": 0, "release": 4.0, "work": 1.0}
{"origin": 1, "release": 5.0, "work": 2.0}
"#;
    let cfg = ServeConfig {
        stats_every: Some(2),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);
    assert!(
        has_field(&recs[0], "stats_every"),
        "hello advertises cadence"
    );
    let stats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "stats").collect();
    // 5 input lines (rejects count) at a cadence of 2 -> lines 2 and 4.
    let lines: Vec<f64> = stats.iter().map(|r| num(r, "line")).collect();
    assert_eq!(lines, vec![2.0, 4.0]);
    for rec in &stats {
        assert_eq!(num(rec, "v"), 4.0);
        for key in [
            "now", "pending", "running", "decides", "admitted", "rejected",
        ] {
            assert!(has_field(rec, key), "stats missing {key}");
        }
    }
    let times: Vec<f64> = stats.iter().map(|r| num(r, "now")).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "stats timestamps not monotone: {times:?}"
    );
    // The stats stream's own deltas sum to its final totals.
    let admitted_deltas: f64 = stats.iter().map(|r| num(r, "admitted_delta")).sum();
    assert_eq!(admitted_deltas, num(stats.last().unwrap(), "admitted"));
}

#[test]
fn stats_every_zero_is_a_usage_error() {
    use mmsec_apps::cli::CliError;
    let inst = platform();
    let cfg = ServeConfig {
        stats_every: Some(0),
        ..ServeConfig::default()
    };
    let mut out = Vec::new();
    let err = serve(&inst, &cfg, Cursor::new(String::new()), &mut out, None).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "got {err:?}");
}

#[test]
fn bounded_admission_sheds_with_an_explicit_record() {
    let inst = platform();
    // Three simultaneous heavy jobs against a cap of 2 unfinished.
    let input = r#"
{"origin": 0, "release": 0.0, "work": 50.0}
{"origin": 0, "release": 0.0, "work": 50.0}
{"origin": 0, "release": 0.0, "work": 50.0}
"#;
    let cfg = ServeConfig {
        max_pending: Some(2),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);
    let sheds: Vec<_> = recs.iter().filter(|r| kind_of(r) == "shed").collect();
    assert_eq!(sheds.len(), 1);
    assert_eq!(num(sheds[0], "line"), 3.0);
    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "admitted"), 2.0);
    assert_eq!(num(summary, "shed"), 1.0);
    assert_eq!(num(summary, "completed"), 2.0);
}

#[test]
fn bad_lines_are_rejected_not_fatal() {
    let inst = platform();
    let input = r#"
not json at all
{"origin": 99, "release": 0.0, "work": 1.0}
{"origin": 0, "work": -3.0}
{"origin": 0, "frobnicate": 1}
{"origin": 0, "release": 0.0, "work": 1.0}
"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);
    let rejects: Vec<_> = recs.iter().filter(|r| kind_of(r) == "reject").collect();
    assert_eq!(rejects.len(), 4);
    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "rejected"), 4.0);
    assert_eq!(num(summary, "admitted"), 1.0);
    assert_eq!(num(summary, "completed"), 1.0);
}

fn txt<'a>(rec: &'a [(String, Value)], key: &str) -> &'a str {
    rec.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing string field {key}"))
}

#[test]
fn platform_records_mutate_the_session_mid_stream() {
    let inst = platform();
    // Mutations interleave with submissions; `set_link` uses the
    // underscore spelling, which the parser normalises to `set-link`.
    let input = r#"
{"type": "platform", "op": "add-cloud", "speed": 2.0}
{"origin": 0, "release": 1.0, "work": 2.0}
{"type": "platform", "op": "set_link", "unit": 0, "factor": 0.5}
"#;
    let cfg = ServeConfig {
        stats_every: Some(1),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);

    let oks: Vec<_> = recs
        .iter()
        .filter(|r| kind_of(r) == "platform-ok")
        .collect();
    assert_eq!(oks.len(), 2);
    assert_eq!(txt(oks[0], "op"), "add-cloud");
    assert_eq!(num(oks[0], "version"), 2.0);
    assert_eq!(num(oks[0], "edges"), 2.0);
    assert_eq!(num(oks[0], "clouds"), 3.0);
    assert_eq!(txt(oks[1], "op"), "set-link");
    assert_eq!(num(oks[1], "version"), 3.0);

    // Every input line (mutations included) falls on the stats cadence,
    // and the payload tracks the platform version as it bumps.
    let stats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "stats").collect();
    assert_eq!(stats.len(), 3);
    assert_eq!(num(stats[0], "platform_version"), 2.0);
    assert_eq!(num(stats[0], "clouds"), 3.0);
    assert_eq!(num(stats[2], "platform_version"), 3.0);

    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "admitted"), 1.0);
    assert_eq!(num(summary, "completed"), 1.0);
    assert_eq!(num(summary, "rejected"), 0.0);
}

#[test]
fn edge_only_recomputes_deadlines_after_an_edge_speed_change() {
    // Edge-Only caches each job's deadline under the platform version it
    // was computed for. At t = 0 edge 0 (speed 1) orders job 0 (work 2,
    // whose cloud alternative of 22 s makes its stretch denominator 2)
    // before job 1 (work 3). Job 2 releases on edge 1 at t = 0.5, so the
    // decide there sees edge 0 already slowed to 0.25: edge 0 has no new
    // release, and only the version bump makes it recompute. Under the
    // new speed, stretch-so-far puts job 1 first (done at 0.5 + 12 =
    // 12.5) and job 0 last (12.5 + 1.5 / 0.25 = 18.5). Keeping the stale
    // order would finish job 0 at 0.5 + 1.5 / 0.25 = 6.5 instead.
    let spec = PlatformSpec::builder()
        .edges(vec![1.0, 1.0])
        .cloud_pool(1)
        .build();
    let inst = Instance::new(spec, vec![]).unwrap();
    let input = r#"
{"origin": 0, "release": 0, "work": 2, "up": 10, "dn": 10}
{"origin": 0, "release": 0, "work": 3}
{"origin": 1, "release": 0.5, "work": 1}
{"type": "platform", "op": "set-edge-speed", "unit": 0, "speed": 0.25}
"#;
    let cfg = ServeConfig {
        policy: PolicyKind::EdgeOnly,
        heartbeat: 100.0,
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);
    let done: Vec<(f64, f64)> = recs
        .iter()
        .filter(|r| kind_of(r) == "completion")
        .map(|r| (num(r, "job"), num(r, "completion")))
        .collect();
    assert_eq!(done, vec![(2.0, 1.5), (1.0, 12.5), (0.0, 18.5)]);
}

#[test]
fn malformed_platform_records_are_rejected_not_fatal() {
    let inst = platform();
    // Unknown op, unknown unit, remove-twice, negative speed, missing
    // field, missing op — each a typed reject, none fatal; the one valid
    // removal and the final job still go through.
    let input = r#"
{"type": "platform", "op": "frobnicate"}
{"type": "platform", "op": "set-link", "unit": 99, "factor": 0.5}
{"type": "platform", "op": "remove-cloud", "unit": 1}
{"type": "platform", "op": "remove-cloud", "unit": 1}
{"type": "platform", "op": "add-edge", "speed": -1.0}
{"type": "platform", "op": "set-edge-speed", "unit": 0}
{"type": "platform"}
{"origin": 0, "release": 0.0, "work": 1.0}
"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);

    let rejects: Vec<_> = recs.iter().filter(|r| kind_of(r) == "reject").collect();
    assert_eq!(rejects.len(), 6);
    assert!(txt(rejects[0], "error").contains("unknown op"));
    assert!(txt(rejects[1], "error").contains("unknown edge"));
    assert!(txt(rejects[2], "error").contains("already removed"));
    assert!(txt(rejects[3], "error").contains("speed must be positive"));
    assert!(txt(rejects[4], "error").contains("needs a \"speed\" field"));
    assert!(txt(rejects[5], "error").contains("missing field \"op\""));

    let oks: Vec<_> = recs
        .iter()
        .filter(|r| kind_of(r) == "platform-ok")
        .collect();
    assert_eq!(oks.len(), 1);
    assert_eq!(num(oks[0], "clouds"), 1.0);

    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "rejected"), 6.0);
    assert_eq!(num(summary, "admitted"), 1.0);
    assert_eq!(num(summary, "completed"), 1.0);
}

#[test]
fn heartbeats_stay_monotone_when_one_advance_skips_many_boundaries() {
    // Regression: a session whose next event lies far beyond several
    // heartbeat boundaries used to emit one heartbeat per boundary, all
    // stamped with the same post-advance `now` and a payload from before
    // the advance (a job could show as pending in a beat emitted after
    // its completion record). One crossing must yield one beat.
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 50.0, 1.0, 0.0, 0.0)]).unwrap();
    let input = r#"{"origin": 0, "release": 55.0, "work": 1.0}"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);

    let beats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "heartbeat").collect();
    let times: Vec<f64> = beats.iter().map(|r| num(r, "now")).collect();
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "heartbeat timestamps not strictly monotone: {times:?}"
    );
    // Crossing boundaries 10..50 in one advance yields exactly one beat,
    // stamped where the session actually paused.
    assert_eq!(times, vec![50.0]);
    // The payload reflects the state *after* the advance: the preloaded
    // job cannot have completed at t = 50 and is still accounted for.
    assert_eq!(num(beats[0], "completed"), 0.0);
    assert!(num(beats[0], "unfinished") >= 1.0);

    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "completed"), 2.0);
}

#[test]
fn unstarted_drain_emits_no_stale_or_duplicate_heartbeats() {
    // Regression: draining a session that never started (its only job's
    // release lies many heartbeat boundaries in the future) used to emit
    // one heartbeat per boundary, all stamped with the stale pre-start
    // clock — duplicated, non-monotone timestamps. The drain must jump
    // to the first event and beat once, where the session actually is.
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let inst = Instance::new(spec, vec![]).unwrap();
    let input = r#"{"origin": 0, "release": 55.0, "work": 1.0}"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);

    let beats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "heartbeat").collect();
    let times: Vec<f64> = beats.iter().map(|r| num(r, "now")).collect();
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "heartbeat timestamps not strictly monotone: {times:?}"
    );
    assert_eq!(times, vec![55.0], "one beat, stamped at the first pause");
    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "completed"), 1.0);
}

#[test]
fn stats_never_precede_the_last_heartbeat() {
    // Regression: a `stats` record (line cadence) must never carry a
    // timestamp earlier than the last `heartbeat` (virtual-time cadence)
    // on the same stream. Before the unstarted-session fix, a heartbeat
    // could be emitted with a stale pre-start clock while later stats
    // reported an earlier `now`. Far-future releases exercise exactly
    // that path.
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let inst = Instance::new(spec, vec![]).unwrap();
    let input = r#"
{"origin": 0, "release": 15.0, "work": 1.0}
{"origin": 0, "release": 25.0, "work": 1.0}
{"origin": 0, "release": 47.0, "work": 2.0}
"#;
    let cfg = ServeConfig {
        stats_every: Some(1),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);

    let mut last_beat = f64::NEG_INFINITY;
    for rec in &recs {
        match kind_of(rec) {
            "heartbeat" => {
                let now = num(rec, "now");
                assert!(
                    now > last_beat,
                    "heartbeat at {now} not after previous at {last_beat}"
                );
                last_beat = now;
            }
            "stats" => {
                let now = num(rec, "now");
                assert!(
                    now >= last_beat,
                    "stats at {now} precedes last heartbeat at {last_beat}"
                );
            }
            _ => {}
        }
    }
    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "completed"), 3.0);
}

#[test]
fn preloaded_instance_jobs_run_as_a_warm_batch() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)]).unwrap();
    let recs = serve_lines(&inst, &ServeConfig::default(), "");
    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "completed"), 1.0);
    assert_eq!(num(summary, "lines"), 0.0);
}

#[test]
fn set_hop_reprices_a_tiered_session_mid_stream() {
    // Two tiers: tier-1 cloud one hop away, tier-2 cloud behind a second
    // (pricier) hop. `set-hop` on hop 1 reprices the deep cloud only.
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 0.8])
        .tier(1.0, 1.0)
        .cloud(1.0)
        .tier(2.0, 3.0)
        .cloud(1.0)
        .build();
    let inst = Instance::new(spec, vec![]).unwrap();
    let input = r#"
{"origin": 0, "release": 1.0, "work": 2.0, "up": 0.5, "dn": 0.25}
{"type": "platform", "op": "set-hop", "hop": 1, "up": 4.0, "dn": 0.5}
"#;
    let cfg = ServeConfig {
        stats_every: Some(1),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);

    let oks: Vec<_> = recs
        .iter()
        .filter(|r| kind_of(r) == "platform-ok")
        .collect();
    assert_eq!(oks.len(), 1);
    assert_eq!(txt(oks[0], "op"), "set-hop");
    assert_eq!(num(oks[0], "version"), 2.0);

    // The v4 stats payload reports the tier depth and per-tier live
    // cloud counts on tiered sessions.
    let stats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "stats").collect();
    assert!(!stats.is_empty());
    assert_eq!(num(stats[0], "tiers"), 2.0);
    assert_eq!(txt(stats[0], "clouds_by_tier"), "1,1");

    let summary = recs.last().unwrap();
    assert_eq!(num(summary, "rejected"), 0.0);
    assert_eq!(num(summary, "completed"), 1.0);
}

#[test]
fn flat_sessions_report_depth_one_and_reject_set_hop() {
    let inst = platform();
    let input = r#"
{"type": "platform", "op": "set-hop", "hop": 0, "up": 2.0, "dn": 2.0}
{"origin": 0, "release": 1.0, "work": 2.0}
"#;
    let cfg = ServeConfig {
        stats_every: Some(1),
        ..ServeConfig::default()
    };
    let recs = serve_lines(&inst, &cfg, input);
    let rejects: Vec<_> = recs.iter().filter(|r| kind_of(r) == "reject").collect();
    assert_eq!(rejects.len(), 1);
    assert_eq!(txt(rejects[0], "code"), "unknown-hop");
    assert!(txt(rejects[0], "error").contains("unknown tier hop 0"));
    // A flat platform is a depth-1 continuum with unit hops.
    let stats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "stats").collect();
    assert_eq!(num(stats[0], "tiers"), 1.0);
}

#[test]
fn rejects_carry_stable_codes_and_fields() {
    let inst = platform();
    let input = r#"
not json at all
{"origin": 0, "work": 2.0, "bogus": 1}
{"work": 2.0}
{"origin": 0, "work": -1.0}
{"origin": 0, "work": "heavy"}
{"type": "platform", "op": "warp", "unit": 0}
{"type": "platform", "op": "set-edge-speed", "unit": 99, "speed": 2.0}
"#;
    let recs = serve_lines(&inst, &ServeConfig::default(), input);
    let rejects: Vec<_> = recs.iter().filter(|r| kind_of(r) == "reject").collect();
    let got: Vec<(&str, &str)> = rejects
        .iter()
        .map(|r| {
            let field = if has_field(r, "field") {
                txt(r, "field")
            } else {
                ""
            };
            (txt(r, "code"), field)
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("parse-error", ""),
            ("unknown-field", "bogus"),
            ("missing-field", "origin"),
            ("bad-value", "work"),
            ("bad-type", "work"),
            ("unknown-op", "op"),
            ("unknown-edge", "op"),
        ]
    );
}

/// The whole single-session output for one fixed input, byte for byte,
/// so a refactor of the serving loop cannot change the protocol. The
/// input opens on an unstarted session whose first release lies beyond
/// two heartbeat boundaries (one beat covers the crossing), then admits,
/// sheds at `max_pending`, rejects a `parse-error`, an `unknown-field`
/// and an unknown origin, applies one mutation and refuses another, emits
/// `stats` on the line cadence, crosses two boundaries in one advance,
/// and drains with heartbeats to the `summary`.
#[test]
fn served_stream_is_pinned() {
    let input = r#"{"origin": 0, "release": 12.0, "work": 1.0}
{"origin": 7, "work": 1.0}
not json at all
{"origin": 1, "release": 13.0, "work": 20.0}
{"origin": 0, "release": 13.0, "work": 2.0, "up": 0.5, "dn": 0.25}
{"origin": 0, "work": 1.0, "colour": "red"}
{"origin": 1, "release": 13.0, "work": 3.0}
{"origin": 1, "release": 13.5, "work": 1.0}
{"type": "platform", "op": "add-cloud", "speed": 2.0}
{"type": "platform", "op": "remove-edge", "unit": 9}
{"origin": 0, "release": 48.0, "work": 1.0}
{"origin": 1, "work": 0.5, "up": 0.25, "dn": 0.25}
"#;
    let want = r#"{"type":"hello","policy":"ssf-edf","edges":2,"clouds":2,"preloaded":0,"heartbeat":5,"stats_every":3}
{"type":"admit","line":1,"job":0,"release":12}
{"type":"reject","line":2,"error":"job 1 originates from nonexistent edge unit 7","code":"origin-out-of-range","field":"origin"}
{"type":"reject","line":3,"error":"expected '{' at byte 0","code":"parse-error"}
{"type":"stats","v":4,"line":3,"now":0,"submitted":1,"completed":0,"unfinished":1,"pending":0,"running":0,"platform_version":1,"edges":2,"clouds":2,"tiers":1,"max_stretch":0,"mean_stretch":0,"events":0,"decides":0,"decide_skips":0,"admitted":1,"shed":0,"rejected":2,"admitted_delta":1,"shed_delta":0,"completed_delta":0}
{"type":"heartbeat","v":4,"now":12,"submitted":1,"completed":0,"unfinished":1,"pending":1,"running":1,"platform_version":1,"edges":2,"clouds":2,"tiers":1,"max_stretch":0,"mean_stretch":0,"events":1,"decides":1,"decide_skips":0,"admitted":1,"shed":0,"rejected":2,"admitted_delta":1,"shed_delta":0,"completed_delta":0}
{"type":"completion","job":0,"target":"cloud:0","release":12,"completion":13,"response":1,"stretch":1}
{"type":"admit","line":4,"job":1,"release":13}
{"type":"admit","line":5,"job":2,"release":13}
{"type":"reject","line":6,"error":"unknown field \"colour\"","code":"unknown-field","field":"colour"}
{"type":"stats","v":4,"line":6,"now":13,"submitted":3,"completed":1,"unfinished":2,"pending":0,"running":0,"platform_version":1,"edges":2,"clouds":2,"tiers":1,"max_stretch":1,"mean_stretch":1,"events":2,"decides":1,"decide_skips":1,"admitted":3,"shed":0,"rejected":3,"admitted_delta":2,"shed_delta":0,"completed_delta":1}
{"type":"admit","line":7,"job":3,"release":13}
{"type":"shed","line":8,"reason":"max-pending","unfinished":3}
{"type":"platform-ok","line":9,"op":"add-cloud","version":2,"edges":2,"clouds":3}
{"type":"stats","v":4,"line":9,"now":13.5,"submitted":4,"completed":1,"unfinished":3,"pending":3,"running":2,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1,"mean_stretch":1,"events":4,"decides":2,"decide_skips":2,"admitted":4,"shed":1,"rejected":3,"admitted_delta":1,"shed_delta":1,"completed_delta":0}
{"type":"reject","line":10,"error":"unknown edge unit 9","code":"unknown-edge","field":"op"}
{"type":"completion","job":3,"target":"cloud:2","release":13,"completion":15,"response":2,"stretch":1.3333333333333333}
{"type":"heartbeat","v":4,"now":15,"submitted":4,"completed":2,"unfinished":2,"pending":2,"running":2,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.3333333333333333,"mean_stretch":1.1666666666666665,"events":6,"decides":4,"decide_skips":2,"admitted":4,"shed":1,"rejected":4,"admitted_delta":3,"shed_delta":1,"completed_delta":2}
{"type":"completion","job":2,"target":"cloud:0","release":13,"completion":15.75,"response":2.75,"stretch":1.5714285714285714}
{"type":"heartbeat","v":4,"now":20,"submitted":4,"completed":3,"unfinished":1,"pending":1,"running":1,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.3015873015873014,"events":9,"decides":5,"decide_skips":4,"admitted":4,"shed":1,"rejected":4,"admitted_delta":0,"shed_delta":0,"completed_delta":1}
{"type":"completion","job":1,"target":"cloud:2","release":13,"completion":25,"response":12,"stretch":1.2}
{"type":"admit","line":11,"job":4,"release":48}
{"type":"admit","line":12,"job":5,"release":25}
{"type":"stats","v":4,"line":12,"now":25,"submitted":6,"completed":4,"unfinished":2,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.276190476190476,"events":10,"decides":5,"decide_skips":5,"admitted":6,"shed":1,"rejected":4,"admitted_delta":2,"shed_delta":0,"completed_delta":3}
{"type":"heartbeat","v":4,"now":25,"submitted":6,"completed":4,"unfinished":2,"pending":1,"running":1,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.276190476190476,"events":11,"decides":6,"decide_skips":5,"admitted":6,"shed":1,"rejected":4,"admitted_delta":2,"shed_delta":0,"completed_delta":1}
{"type":"completion","job":5,"target":"edge","release":25,"completion":25.625,"response":0.625,"stretch":1}
{"type":"heartbeat","v":4,"now":30,"submitted":6,"completed":5,"unfinished":1,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.2209523809523808,"events":13,"decides":7,"decide_skips":6,"admitted":6,"shed":1,"rejected":4,"admitted_delta":0,"shed_delta":0,"completed_delta":1}
{"type":"heartbeat","v":4,"now":35,"submitted":6,"completed":5,"unfinished":1,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.2209523809523808,"events":14,"decides":7,"decide_skips":7,"admitted":6,"shed":1,"rejected":4,"admitted_delta":0,"shed_delta":0,"completed_delta":0}
{"type":"heartbeat","v":4,"now":40,"submitted":6,"completed":5,"unfinished":1,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.2209523809523808,"events":15,"decides":7,"decide_skips":8,"admitted":6,"shed":1,"rejected":4,"admitted_delta":0,"shed_delta":0,"completed_delta":0}
{"type":"heartbeat","v":4,"now":45,"submitted":6,"completed":5,"unfinished":1,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":3,"tiers":1,"max_stretch":1.5714285714285714,"mean_stretch":1.2209523809523808,"events":16,"decides":7,"decide_skips":9,"admitted":6,"shed":1,"rejected":4,"admitted_delta":0,"shed_delta":0,"completed_delta":0}
{"type":"completion","job":4,"target":"cloud:2","release":48,"completion":48.5,"response":0.5,"stretch":1}
{"type":"summary","now":48.5,"lines":12,"admitted":6,"shed":1,"rejected":4,"completed":6,"max_stretch":1.5714285714285714,"mean_stretch":1.1841269841269841,"events":18}
"#;
    let cfg = ServeConfig {
        heartbeat: 5.0,
        max_pending: Some(3),
        stats_every: Some(3),
        ..ServeConfig::default()
    };
    let mut out = Vec::new();
    serve(&platform(), &cfg, Cursor::new(input), &mut out, None).unwrap();
    let got = String::from_utf8(out).unwrap();
    assert_eq!(
        got.lines().collect::<Vec<_>>(),
        want.lines().collect::<Vec<_>>()
    );
}

#[test]
fn serve_binary_round_trips_ndjson() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("mmsec-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("platform.txt");
    std::fs::write(&inst_path, platform().to_text()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_mmsec"))
        .args(["serve", "--instance", inst_path.to_str().unwrap()])
        .args(["--policy", "srpt", "--heartbeat", "5", "--stats-every", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"origin\": 0, \"release\": 1.0, \"work\": 2.0}\n\
              {\"origin\": 1, \"release\": 2.0, \"work\": 1.0, \"up\": 0.5, \"dn\": 0.5}\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).unwrap();
    let recs: Vec<_> = stdout.lines().map(|l| parse_object(l).unwrap()).collect();
    assert_eq!(kind_of(&recs[0]), "hello");
    assert_eq!(kind_of(recs.last().unwrap()), "summary");
    assert_eq!(num(recs.last().unwrap(), "completed"), 2.0);
    assert_eq!(
        recs.iter().filter(|r| kind_of(r) == "completion").count(),
        2
    );
    // --stats-every 1: one stats record per input line, numbered 1..=2,
    // each carrying the v4 payload.
    let stats: Vec<_> = recs.iter().filter(|r| kind_of(r) == "stats").collect();
    assert_eq!(stats.len(), 2);
    for (i, rec) in stats.iter().enumerate() {
        assert_eq!(num(rec, "line"), (i + 1) as f64);
        assert_eq!(num(rec, "v"), 4.0);
        assert!(has_field(rec, "pending"));
        assert!(has_field(rec, "decides"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flags_with_usage_exit_code() {
    for bad in [["--hartbeat", "5"], ["--speedup", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmsec"))
            .args(["serve", "--instance", "x.txt"])
            .args(bad)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }

    // Missing instance file is an I/O error: exit 3.
    let out = Command::new(env!("CARGO_BIN_EXE_mmsec"))
        .args(["serve", "--instance", "/nonexistent/platform.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}
