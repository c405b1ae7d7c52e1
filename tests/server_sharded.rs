//! Integration tests for the sharded multi-session server
//! (`mmsec_apps::server`): record framing, accounting, overload
//! shedding, the socket listener end to end, and the bit-identity
//! property — each tenant's record stream on a sharded server equals the
//! same traffic on an independent single-session serve.

use mmsec_apps::ndjson::{parse_object, Value};
use mmsec_apps::serve::{serve, ServeConfig};
use mmsec_apps::server::{run_listener, run_sharded, Listen, ServerConfig, ServerSummary};
use mmsec_core::PolicyKind;
use mmsec_platform::{Instance, PlatformSpec};
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn platform() -> Instance {
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 0.8])
        .cloud_pool(2)
        .build();
    Instance::new(spec, vec![]).unwrap()
}

fn server_cfg(shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        // Wall-clock server heartbeats are nondeterministic: keep them
        // out of in-memory tests.
        heartbeat_ms: 0,
        ..ServerConfig::default()
    }
}

/// Runs one in-memory sharded connection and returns (raw output lines,
/// summary).
fn run_lines(inst: &Instance, cfg: &ServerConfig, input: &str) -> (Vec<String>, ServerSummary) {
    let mut out = Vec::new();
    let summary = run_sharded(inst, cfg, Cursor::new(input.to_string()), &mut out).unwrap();
    let lines = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (lines, summary)
}

fn kind_of(rec: &[(String, Value)]) -> &str {
    rec.iter()
        .find(|(k, _)| k == "type")
        .and_then(|(_, v)| v.as_str())
        .expect("every record has a type")
}

fn txt<'a>(rec: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    rec.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
}

fn num(rec: &[(String, Value)], key: &str) -> f64 {
    rec.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_num())
        .unwrap_or_else(|| panic!("missing numeric field {key}"))
}

#[test]
fn two_tenants_get_tagged_streams_and_a_server_summary() {
    let input = r#"
{"tenant": "a", "origin": 0, "release": 1.0, "work": 2.0}
{"tenant": "b", "origin": 1, "release": 1.0, "work": 1.0}
{"tenant": "a", "origin": 0, "release": 2.0, "work": 1.0}
"#;
    let (lines, summary) = run_lines(&platform(), &server_cfg(4), input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();

    assert_eq!(kind_of(&recs[0]), "server-hello");
    assert_eq!(kind_of(recs.last().unwrap()), "server-summary");
    // Every record between the server frame is tenant-tagged.
    for rec in &recs[1..recs.len() - 1] {
        let t = txt(rec, "tenant").expect("tenant tag");
        assert!(t == "a" || t == "b", "unexpected tenant {t}");
    }
    // Each tenant got its own hello and summary.
    for t in ["a", "b"] {
        assert_eq!(
            recs.iter()
                .filter(|r| kind_of(r) == "hello" && txt(r, "tenant") == Some(t))
                .count(),
            1
        );
        assert_eq!(
            recs.iter()
                .filter(|r| kind_of(r) == "summary" && txt(r, "tenant") == Some(t))
                .count(),
            1
        );
    }
    assert_eq!(summary.lines, 3);
    assert_eq!(summary.admitted, 3);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.tenants, 2);
    assert_eq!(summary.shed + summary.rejected, 0);
    let server_summary = recs.last().unwrap();
    assert_eq!(num(server_summary, "admitted"), 3.0);
    assert_eq!(num(server_summary, "tenants"), 2.0);
}

#[test]
fn untagged_lines_route_to_the_default_tenant() {
    let input = r#"{"origin": 0, "release": 0.5, "work": 1.0}"#;
    let (lines, summary) = run_lines(&platform(), &server_cfg(2), input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();
    assert!(recs
        .iter()
        .any(|r| kind_of(r) == "admit" && txt(r, "tenant") == Some("default")));
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.tenants, 1);
}

#[test]
fn spec_record_creates_the_tenant_platform() {
    let input = r#"
{"tenant": "big", "type": "spec", "edges": 3, "clouds": 2, "cloud-speed": 2.0}
{"tenant": "big", "origin": 2, "release": 0.0, "work": 1.0}
{"tenant": "bad", "type": "spec", "edges": 0}
"#;
    let (lines, summary) = run_lines(&platform(), &server_cfg(2), input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();

    let ok: Vec<_> = recs.iter().filter(|r| kind_of(r) == "spec-ok").collect();
    assert_eq!(ok.len(), 1);
    assert_eq!(txt(ok[0], "tenant"), Some("big"));
    assert_eq!(num(ok[0], "edges"), 3.0);
    assert_eq!(num(ok[0], "clouds"), 2.0);
    // The tenant's hello advertises the spec'd platform, not the default.
    let hello = recs
        .iter()
        .find(|r| kind_of(r) == "hello" && txt(r, "tenant") == Some("big"))
        .unwrap();
    assert_eq!(num(hello, "edges"), 3.0);
    // origin 2 only exists on the spec'd platform: it must admit.
    assert!(recs
        .iter()
        .any(|r| kind_of(r) == "admit" && txt(r, "tenant") == Some("big")));
    // The bad spec is rejected and creates no lane.
    assert!(recs
        .iter()
        .any(|r| kind_of(r) == "reject" && txt(r, "tenant") == Some("bad")));
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.tenants, 1);
}

#[test]
fn global_pending_gate_sheds_at_the_router() {
    // A saturated gate (cap 0 is "always at capacity" — the general case
    // depends on worker timing, this one is deterministic) sheds every
    // job line at the router with a typed reason; control records such
    // as platform mutations still go through.
    let input = r#"
{"tenant": "a", "origin": 0, "release": 0.0, "work": 1000.0}
{"tenant": "a", "type": "platform", "op": "add-cloud", "speed": 2.0}
{"tenant": "b", "origin": 0, "release": 0.0, "work": 1.0}
"#;
    let cfg = ServerConfig {
        global_pending: Some(0),
        ..server_cfg(2)
    };
    let (lines, summary) = run_lines(&platform(), &cfg, input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();
    let sheds: Vec<_> = recs
        .iter()
        .filter(|r| kind_of(r) == "shed" && txt(r, "reason") == Some("global-overload"))
        .collect();
    assert_eq!(sheds.len(), 2);
    assert!(recs.iter().any(|r| kind_of(r) == "platform-ok"));
    assert_eq!(summary.admitted, 0);
    assert_eq!(summary.shed, 2);
    // Accounting closes: every input line is admitted, shed, or rejected
    // (the applied mutation is none of those, so count it out).
    assert_eq!(
        summary.admitted + summary.shed + summary.rejected,
        summary.lines - 1
    );
}

#[test]
fn single_shard_single_tenant_matches_plain_serve_modulo_tag() {
    let input = r#"
{"origin": 0, "release": 1.0, "work": 2.0, "up": 0.5, "dn": 0.25}
{"origin": 1, "release": 2.0, "work": 1.0}
not json at all
{"type": "platform", "op": "add-cloud", "speed": 2.0}
{"origin": 0, "release": 25.0, "work": 1.0}
"#;
    let inst = platform();
    let (lines, _) = run_lines(&inst, &server_cfg(1), input);
    let tagged: Vec<String> = lines
        .iter()
        .filter(|l| l.contains("\"tenant\":\"default\""))
        .map(|l| l.replacen(",\"tenant\":\"default\"", "", 1))
        .collect();

    let mut plain = Vec::new();
    serve(
        &inst,
        &ServeConfig::default(),
        Cursor::new(input.to_string()),
        &mut plain,
        None,
    )
    .unwrap();
    let plain: Vec<&str> = std::str::from_utf8(&plain).unwrap().lines().collect();
    assert_eq!(tagged, plain, "tagged stream is not byte-identical");
}

/// The whole output of a one-shard connection for one fixed input, byte
/// for byte: a `spec` record, a bad `spec` (its tenant then gets the
/// default platform), two tenants' admits, a mutation, an unknown-origin
/// reject, completions, a heartbeat, both summaries and the
/// `server-summary`. One shard and no wall-clock beats make the merged
/// order deterministic.
#[test]
fn sharded_stream_is_pinned() {
    let input = r#"{"tenant": "a", "type": "spec", "edges": 2, "clouds": 1, "cloud-speed": 2.0}
{"tenant": "a", "origin": 1, "release": 0.5, "work": 2.0}
{"tenant": "b", "type": "spec", "edges": 0}
{"tenant": "b", "origin": 0, "release": 1.0, "work": 1.0, "up": 0.5}
{"tenant": "a", "type": "platform", "op": "add-cloud", "speed": 1.0}
{"tenant": "b", "origin": 1, "release": 2.0, "work": 3.0}
{"tenant": "a", "origin": 0, "release": 12.0, "work": 1.0}
{"tenant": "b", "origin": 5, "release": 2.5, "work": 1.0}
"#;
    let want = r#"{"type":"server-hello","shards":1,"policy":"ssf-edf"}
{"type":"spec-ok","tenant":"a","edges":2,"clouds":1}
{"type":"hello","tenant":"a","policy":"ssf-edf","edges":2,"clouds":1,"preloaded":0,"heartbeat":10}
{"type":"admit","tenant":"a","line":1,"job":0,"release":0.5}
{"type":"reject","tenant":"b","error":"a platform needs at least one edge","code":"bad-value","field":"edges"}
{"type":"hello","tenant":"b","policy":"ssf-edf","edges":2,"clouds":2,"preloaded":0,"heartbeat":10}
{"type":"admit","tenant":"b","line":1,"job":0,"release":1}
{"type":"platform-ok","tenant":"a","line":2,"op":"add-cloud","version":2,"edges":2,"clouds":2}
{"type":"admit","tenant":"b","line":2,"job":1,"release":2}
{"type":"completion","tenant":"a","job":0,"target":"cloud:0","release":0.5,"completion":1.5,"response":1,"stretch":1}
{"type":"admit","tenant":"a","line":3,"job":1,"release":12}
{"type":"completion","tenant":"b","job":0,"target":"cloud:0","release":1,"completion":2.5,"response":1.5,"stretch":1}
{"type":"reject","tenant":"b","line":3,"error":"job 2 originates from nonexistent edge unit 5","code":"origin-out-of-range","field":"origin"}
{"type":"heartbeat","tenant":"a","v":4,"now":10,"submitted":2,"completed":1,"unfinished":1,"pending":0,"running":0,"platform_version":2,"edges":2,"clouds":2,"tiers":1,"max_stretch":1,"mean_stretch":1,"events":2,"decides":2,"decide_skips":0,"admitted":2,"shed":0,"rejected":0,"admitted_delta":2,"shed_delta":0,"completed_delta":1}
{"type":"completion","tenant":"a","job":1,"target":"cloud:0","release":12,"completion":12.5,"response":0.5,"stretch":1}
{"type":"summary","tenant":"a","now":12.5,"lines":3,"admitted":2,"shed":0,"rejected":0,"completed":2,"max_stretch":1,"mean_stretch":1,"events":4}
{"type":"completion","tenant":"b","job":1,"target":"cloud:1","release":2,"completion":5,"response":3,"stretch":1}
{"type":"summary","tenant":"b","now":5,"lines":3,"admitted":2,"shed":0,"rejected":1,"completed":2,"max_stretch":1,"mean_stretch":1,"events":5}
{"type":"server-summary","lines":8,"admitted":4,"shed":0,"rejected":2,"completed":4,"tenants":2}
"#;
    let (lines, _) = run_lines(&platform(), &server_cfg(1), input);
    assert_eq!(lines, want.lines().collect::<Vec<_>>());
}

#[test]
fn a_panicking_lane_fails_alone() {
    // The platform of `mmsec gen random --n 0 --seed 7`. Tenant "bad"'s
    // job overflows SRPT's forecasts to an infinite time, which panics
    // inside the policy when the lane drains at EOF. Only that lane may
    // fail: "good" shares its shard and must still be served in full.
    let spec = PlatformSpec::builder()
        .edges(vec![0.1; 10])
        .edges(vec![0.5; 10])
        .cloud_pool(20)
        .build();
    let inst = Instance::new(spec, vec![]).unwrap();
    let cfg = ServerConfig {
        serve: ServeConfig {
            policy: PolicyKind::Srpt,
            ..ServeConfig::default()
        },
        ..server_cfg(1)
    };
    let input = r#"{"tenant":"good","origin":0,"release":0,"work":1}
{"tenant":"bad","origin":0,"release":1e308,"work":1e308}
{"tenant":"good","origin":1,"release":1,"work":2}
"#;
    let (lines, summary) = run_lines(&inst, &cfg, input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();
    let of = |tenant: &str, kind: &str| {
        recs.iter()
            .filter(|r| txt(r, "tenant") == Some(tenant) && kind_of(r) == kind)
            .count()
    };
    assert_eq!(of("good", "completion"), 2);
    assert_eq!(of("good", "summary"), 1);
    assert_eq!(of("bad", "error"), 1);
    assert_eq!(of("bad", "summary"), 0);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.tenants, 2);
}

#[test]
fn a_failed_tenant_stays_failed() {
    // Tenant "bad" opens on its own one-edge platform; its second line
    // overflows SRPT's forecasts, so its lane panics on the third. The
    // fourth must not open a new lane on the default platform (a second
    // `hello`, job ids from 0 again, the tenant counted twice): it gets a
    // `lane-failed` reject carrying the tenant's next line number.
    let cfg = ServerConfig {
        serve: ServeConfig {
            policy: PolicyKind::Srpt,
            ..ServeConfig::default()
        },
        ..server_cfg(1)
    };
    let input = r#"{"tenant":"bad","type":"spec","edges":1,"clouds":1,"edge-speed":0.1}
{"tenant":"bad","origin":0,"release":0,"work":1e308}
{"tenant":"bad","origin":0,"release":1,"work":1}
{"tenant":"bad","origin":1,"release":2,"work":1}
"#;
    let (lines, summary) = run_lines(&platform(), &cfg, input);
    let recs: Vec<_> = lines.iter().map(|l| parse_object(l).unwrap()).collect();
    let of = |kind: &str| -> Vec<&Vec<(String, Value)>> {
        recs.iter()
            .filter(|r| kind_of(r) == kind && txt(r, "tenant") == Some("bad"))
            .collect()
    };
    let hello = of("hello");
    assert_eq!(hello.len(), 1);
    assert_eq!(num(hello[0], "edges"), 1.0);
    assert_eq!(of("admit").len(), 1);
    assert_eq!(of("error").len(), 1);
    let reject = of("reject");
    assert_eq!(reject.len(), 1);
    assert_eq!(txt(reject[0], "code"), Some("lane-failed"));
    assert_eq!(num(reject[0], "line"), 3.0);
    let total = recs.last().unwrap();
    assert_eq!(kind_of(total), "server-summary");
    assert_eq!(num(total, "tenants"), 1.0);
    assert_eq!(num(total, "rejected"), 1.0);
    assert_eq!(summary.tenants, 1);
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn socket_listener_serves_one_connection_end_to_end() {
    // Tenant "a" opens with a spec record; untagged lines, one of them
    // malformed, go to the default tenant.
    let input = r#"{"tenant": "a", "type": "spec", "edges": 3, "clouds": 2, "cloud-speed": 2.0}
{"tenant": "a", "origin": 2, "release": 0.0, "work": 1.0}
{"origin": 0, "release": 0.5, "work": 2.0}
{"tenant": "a", "origin": 0, "release": 1.0, "work": 1.5}
{"origin": 1, "release": 1.0,
{"origin": 1, "release": 2.0, "work": 0.5}
"#;
    let path = std::env::temp_dir().join(format!("mmsec-listener-{}.sock", std::process::id()));
    let (inst, cfg) = (platform(), server_cfg(2));
    let listen = Listen::Unix(path.clone());
    let output = std::thread::scope(|s| {
        let server = s.spawn(|| run_listener(&inst, &cfg, &listen, true));
        // The listener binds on its own thread: retry until it accepts.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut conn = loop {
            match UnixStream::connect(&path) {
                Ok(conn) => break conn,
                Err(e) => {
                    let waiting = Instant::now() < deadline && !server.is_finished();
                    assert!(waiting, "cannot connect to {}: {e}", path.display());
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        // Fail rather than hang if the server never closes the stream.
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(input.as_bytes()).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let mut output = String::new();
        conn.read_to_string(&mut output).unwrap();
        server
            .join()
            .expect("listener thread panicked")
            .expect("a --once listener returns Ok after its connection");
        output
    });
    assert!(!path.exists(), "the listener removes its socket file");

    let recs: Vec<_> = output.lines().map(|l| parse_object(l).unwrap()).collect();
    assert_eq!(kind_of(&recs[0]), "server-hello");
    assert_eq!(kind_of(recs.last().unwrap()), "server-summary");
    let of = |kind: &str, tenant: &str| -> Vec<&Vec<(String, Value)>> {
        recs.iter()
            .filter(|r| kind_of(r) == kind && txt(r, "tenant") == Some(tenant))
            .collect()
    };
    let spec_ok = of("spec-ok", "a").len();
    assert_eq!(spec_ok, 1);
    let reject = of("reject", "default");
    assert_eq!(reject.len(), 1);
    assert_eq!(txt(reject[0], "code"), Some("parse-error"));
    for (tenant, rejected) in [("a", 0.0), ("default", 1.0)] {
        let summary = of("summary", tenant);
        assert_eq!(summary.len(), 1, "one summary for {tenant}");
        assert_eq!(num(summary[0], "admitted"), 2.0, "{tenant}");
        assert_eq!(num(summary[0], "completed"), 2.0, "{tenant}");
        assert_eq!(num(summary[0], "rejected"), rejected, "{tenant}");
    }

    // Accounting closes: every input line is admitted, shed, rejected,
    // or answered by a `spec-ok`.
    let total = recs.last().unwrap();
    assert_eq!(num(total, "lines"), 6.0);
    assert_eq!(num(total, "tenants"), 2.0);
    assert_eq!(num(total, "completed"), 4.0);
    assert_eq!(
        num(total, "admitted") + num(total, "shed") + num(total, "rejected"),
        num(total, "lines") - spec_ok as f64
    );
}

/// One tenant's scripted traffic for the bit-identity property.
#[derive(Debug, Clone)]
struct TenantScript {
    name: String,
    lines: Vec<String>,
}

fn arb_job_line() -> impl Strategy<Value = (usize, f64, f64)> {
    (0usize..2, 0u32..40, 1u32..30)
        .prop_map(|(origin, rel, work)| (origin, f64::from(rel) / 4.0, f64::from(work) / 8.0))
}

fn arb_scripts() -> impl Strategy<Value = Vec<TenantScript>> {
    (
        1usize..5,
        prop::collection::vec(prop::collection::vec(arb_job_line(), 1..7), 4usize),
    )
        .prop_map(|(k, all)| {
            all.into_iter()
                .take(k)
                .enumerate()
                .map(|(i, jobs)| {
                    let name = format!("t{i}");
                    let mut release = 0.0f64;
                    let lines = jobs
                        .into_iter()
                        .map(|(origin, gap, work)| {
                            // Releases are non-decreasing within a tenant,
                            // as a real producer's would be.
                            release += gap;
                            format!(
                                "{{\"tenant\": \"{name}\", \"origin\": {origin}, \
                                 \"release\": {release}, \"work\": {work}}}"
                            )
                        })
                        .collect();
                    TenantScript { name, lines }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K tenants interleaved on one sharded server produce per-tenant
    /// record streams bit-identical to K independent single-session
    /// serve runs — including under `--max-pending` shedding.
    #[test]
    fn sharded_streams_match_independent_sessions(
        scripts in arb_scripts(),
        shards in 1usize..5,
        max_pending_raw in 0usize..3,
        interleave_seed in any::<u64>(),
    ) {
        let inst = platform();
        let serve_cfg = ServeConfig {
            policy: PolicyKind::SsfEdf,
            max_pending: (max_pending_raw > 0).then_some(max_pending_raw),
            stats_every: Some(2),
            ..ServeConfig::default()
        };

        // Deterministically interleave the tenants' scripts.
        let mut cursors: Vec<usize> = vec![0; scripts.len()];
        let mut interleaved = String::new();
        let mut rng = interleave_seed;
        loop {
            let live: Vec<usize> = cursors
                .iter()
                .enumerate()
                .filter(|(i, &c)| c < scripts[*i].lines.len())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                break;
            }
            // xorshift64 — cheap, deterministic tenant picking.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let pick = live[(rng % live.len() as u64) as usize];
            interleaved.push_str(&scripts[pick].lines[cursors[pick]]);
            interleaved.push('\n');
            cursors[pick] += 1;
        }

        let cfg = ServerConfig {
            serve: serve_cfg,
            shards,
            heartbeat_ms: 0,
            ..ServerConfig::default()
        };
        let mut out = Vec::new();
        run_sharded(&inst, &cfg, Cursor::new(interleaved), &mut out).unwrap();
        let merged = String::from_utf8(out).unwrap();

        for script in &scripts {
            let tag = format!(",\"tenant\":\"{}\"", script.name);
            let got: Vec<String> = merged
                .lines()
                .filter(|l| l.contains(tag.as_str()))
                .map(|l| l.replacen(tag.as_str(), "", 1))
                .collect();

            let mut solo = Vec::new();
            serve(
                &inst,
                &serve_cfg,
                Cursor::new(script.lines.join("\n")),
                &mut solo,
                None,
            )
            .unwrap();
            let want: Vec<&str> = std::str::from_utf8(&solo).unwrap().lines().collect();
            prop_assert_eq!(
                &got, &want,
                "tenant {} diverged from its solo session", script.name
            );
        }
    }
}
