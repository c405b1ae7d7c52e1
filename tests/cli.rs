//! Integration tests for the `mmsec` command-line binary.

use std::process::Command;

fn mmsec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmsec"))
}

#[test]
fn gen_run_roundtrip() {
    let dir = std::env::temp_dir().join(format!("mmsec-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");

    let out = mmsec()
        .args(["gen", "random", "--n", "15", "--ccr", "0.5", "--seed", "9"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(inst.exists());

    let out = mmsec()
        .args([
            "run",
            "--instance",
            inst.to_str().unwrap(),
            "--policy",
            "srpt",
        ])
        .output()
        .expect("run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max stretch"), "{stdout}");
    assert!(stdout.contains("srpt"));

    let out = mmsec()
        .args([
            "run",
            "--instance",
            inst.to_str().unwrap(),
            "--gantt",
            "--per-job",
        ])
        .output()
        .expect("gantt runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("time 0 .."), "{stdout}");
    assert!(stdout.contains("J1"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_lists_all_policies() {
    let dir = std::env::temp_dir().join(format!("mmsec-cli-cmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    assert!(mmsec()
        .args(["gen", "kang", "--n", "12", "--edges", "6", "--seed", "3"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = mmsec()
        .args(["compare", "--instance", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "edge-only",
        "greedy",
        "srpt",
        "ssf-edf",
        "fcfs",
        "cloud-only",
        "random",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_writes_parseable_text_to_stdout() {
    let out = mmsec()
        .args(["gen", "random", "--n", "5", "--seed", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = mmsec_platform::Instance::from_text(&text).expect("parseable");
    assert_eq!(parsed.num_jobs(), 5);
}

#[test]
fn unknown_flag_is_rejected_with_accepted_set() {
    // A typo like --polcy must fail loudly and name the flags that would
    // have been accepted, not be silently ignored.
    let out = mmsec()
        .args(["run", "--instance", "x.txt", "--polcy", "srpt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --polcy"), "{stderr}");
    assert!(stderr.contains("accepted flags:"), "{stderr}");
    assert!(stderr.contains("--policy"), "{stderr}");

    let out = mmsec()
        .args(["gen", "random", "--n", "5", "--sed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --sed"), "{stderr}");
    assert!(stderr.contains("--seed"), "{stderr}");
}

#[test]
fn trace_and_metrics_roundtrip() {
    use mmsec_platform::obs::json::{parse, Json};

    let dir = std::env::temp_dir().join(format!("mmsec-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("fig1.txt");
    std::fs::write(&inst, mmsec_platform::figure1_instance().to_text()).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");

    let out = mmsec()
        .args([
            "run",
            "--instance",
            inst.to_str().unwrap(),
            "--policy",
            "ssf-edf",
        ])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--metrics", metrics.to_str().unwrap()])
        .output()
        .expect("observed run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Metrics: valid JSON with the documented schema and sane counters.
    let doc = parse(&std::fs::read_to_string(&metrics).unwrap()).expect("valid metrics JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mmsec-metrics/2")
    );
    let counters = doc.get("counters").expect("counters section");
    assert_eq!(counters.get("releases").and_then(Json::as_f64), Some(6.0));
    assert_eq!(
        counters.get("completions").and_then(Json::as_f64),
        Some(6.0)
    );
    assert!(
        counters
            .get("binary_search_probes")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0,
        "ssf-edf must report probes"
    );
    for section in ["decide_latency", "stretch", "units", "ready_queue"] {
        assert!(doc.get(section).is_some(), "missing {section}");
    }

    // Chrome trace: valid JSON, monotone non-decreasing timestamps, and
    // every duration-begin has a matching end on the same track.
    let doc = parse(&std::fs::read_to_string(&trace).unwrap()).expect("valid trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts = f64::NEG_INFINITY;
    let mut depth: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "M" {
            continue; // metadata records carry no timestamp ordering
        }
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= last_ts, "timestamps must be sorted: {ts} < {last_ts}");
        last_ts = ts;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        match ph {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without B on tid {tid}");
            }
            _ => {}
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced B/E pairs: {depth:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_flag_roundtrip_and_strict_parsing() {
    use mmsec_platform::obs::json::{parse, Json};

    let dir = std::env::temp_dir().join(format!("mmsec-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    let out = mmsec()
        .args(["gen", "random", "--n", "40", "--seed", "11"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());
    let profile = dir.join("profile.json");

    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--policy", "srpt"])
        .args(["--profile", profile.to_str().unwrap()])
        .output()
        .expect("profiled run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wrote phase profile"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The artifact is valid JSON with the documented schema, covers the
    // run loop, and its per-phase shares sum to ~1.
    let doc = parse(&std::fs::read_to_string(&profile).unwrap()).expect("valid profile JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mmsec-profile/1")
    );
    assert_eq!(doc.get("policy").and_then(Json::as_str), Some("srpt"));
    assert!(doc.get("steps").and_then(Json::as_f64).unwrap() > 0.0);
    let coverage = doc.get("coverage").and_then(Json::as_f64).unwrap();
    assert!(
        coverage > 0.95 && coverage <= 1.0 + 1e-9,
        "coverage {coverage}"
    );
    let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
    assert_eq!(phases.len(), 6);
    let share_sum: f64 = phases
        .iter()
        .map(|p| p.get("share").and_then(Json::as_f64).unwrap())
        .sum();
    assert!((share_sum - 1.0).abs() < 0.05, "share sum {share_sum}");

    // `cargo xtask obs-report` consumes the same artifact (its renderer
    // is unit-tested in the xtask crate; here we only pin the contract
    // that the CLI-side JSON parses into the fields it reads).
    for key in ["decide_skips", "skip_ratio", "loop_wall_seconds"] {
        assert!(doc.get(key).is_some(), "missing {key}");
    }

    // Strict parsing: --profile without a value is a usage error (exit
    // 2) naming the flag, not a file named after the next flag.
    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap(), "--profile"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--profile requires a value"), "{stderr}");

    // ... and a typo'd cadence flag on serve lists the accepted set.
    let out = mmsec()
        .args(["serve", "--instance", inst.to_str().unwrap()])
        .args(["--stats-evry", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --stats-evry"), "{stderr}");
    assert!(stderr.contains("--stats-every"), "{stderr}");

    // ... and --stats-every must be a positive line count.
    let out = mmsec()
        .args(["serve", "--instance", inst.to_str().unwrap()])
        .args(["--stats-every", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_flags_run_and_are_strict() {
    let dir = std::env::temp_dir().join(format!("mmsec-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    let out = mmsec()
        .args(["gen", "random", "--n", "30", "--seed", "7"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());

    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--policy", "ssf-edf"])
        .args([
            "--fault-mtbf",
            "50",
            "--fault-mttr",
            "5",
            "--fault-seed",
            "3",
        ])
        .output()
        .expect("faulted run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("faults        mtbf 50"), "{stdout}");
    assert!(stdout.contains("downtime windows"), "{stdout}");
    // Same fault seed → same outcome; the run is reproducible (everything
    // except the wall-clock decide-time line is bit-identical).
    let again = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--policy", "ssf-edf"])
        .args([
            "--fault-mtbf",
            "50",
            "--fault-mttr",
            "5",
            "--fault-seed",
            "3",
        ])
        .output()
        .expect("faulted run runs");
    let strip_clock = |bytes: &[u8]| -> String {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.starts_with("decide time"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_clock(&out.stdout), strip_clock(&again.stdout));

    // Strict parsing: fault knobs without --fault-mtbf are rejected.
    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--fault-mttr", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("require --fault-mtbf"), "{stderr}");
    // ... and a non-positive MTBF is rejected.
    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--fault-mtbf", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = mmsec().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = mmsec()
        .args(["run", "--instance", "/nonexistent/file.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = mmsec().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn out_of_range_instance_fields_exit_with_the_validation_code() {
    let dir = std::env::temp_dir().join(format!("mmsec-bad-inst-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    // Negative work is a typed parse error (exit 4), never a constructor
    // panic (exit 101).
    std::fs::write(&inst, "edge 1\ncloud 1\njob 0 0 -1 0 0\n").unwrap();
    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlapping_windows_exit_with_the_validation_code() {
    let dir = std::env::temp_dir().join(format!("mmsec-overlap-inst-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    // Two overlapping windows on one cloud are a typed parse error at
    // the later window's line (exit 4), never a constructor panic (101).
    std::fs::write(
        &inst,
        "edge 1\ncloud 1\nwindow 0 1 5\nwindow 0 3 8\njob 0 0 1 0 0\n",
    )
    .unwrap();
    let out = mmsec()
        .args(["run", "--instance", inst.to_str().unwrap()])
        .args(["--policy", "srpt"])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 4"), "{stderr}");
    assert!(stderr.contains("overlaps"), "{stderr}");
    // The same windows in a trace's spec record: a typed reject too.
    let trace = dir.join("trace.ndjson");
    std::fs::write(
        &trace,
        "{\"type\":\"spec\",\"edges\":1,\"clouds\":1,\"unavail\":\"0:1:5;0:3:8\"}\n",
    )
    .unwrap();
    let out = mmsec()
        .args(["trace", "import", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("import runs");
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("overlapping"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_export_import_round_trips_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("mmsec-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    let trace = dir.join("trace.ndjson");
    let back = dir.join("back.txt");

    let out = mmsec()
        .args(["gen", "kang", "--n", "12", "--edges", "4", "--seed", "3"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());

    let out = mmsec()
        .args(["trace", "export", "--instance", inst.to_str().unwrap()])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("export runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ndjson = std::fs::read_to_string(&trace).unwrap();
    let mut lines = ndjson.lines();
    assert!(lines.next().unwrap().contains("\"type\":\"spec\""));
    assert_eq!(lines.filter(|l| l.contains("\"type\":\"job\"")).count(), 12);

    let out = mmsec()
        .args(["trace", "import", "--trace", trace.to_str().unwrap()])
        .args(["--out", back.to_str().unwrap()])
        .output()
        .expect("import runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The instance text format is itself canonical: a lossless codec
    // must reproduce the original file byte for byte.
    assert_eq!(
        std::fs::read_to_string(&inst).unwrap(),
        std::fs::read_to_string(&back).unwrap()
    );

    // A malformed trace fails with the validation exit code (4).
    std::fs::write(&trace, "{\"origin\":0,\"work\":1}\n").unwrap();
    let out = mmsec()
        .args(["trace", "import", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("import runs");
    assert_eq!(out.status.code(), Some(4));

    std::fs::remove_dir_all(&dir).ok();
}

/// `run -v` prints one line per decision point: its time, the pending
/// count, and the activities granted until the next event. The blocks
/// below pin that output on a windowed, faulted run: a cloud window on
/// `cloud:0` over [8, 12), fault kills and restarts, and every phase on
/// both unit kinds.
#[test]
fn verbose_event_trace_is_pinned() {
    const SRPT: &str = "\
event trace (19 decisions):
  t=0.9582     pending=1   [J1:exec@edge]
  t=1.6197     pending=2   [J1:exec@edge J2:up@cloud:0]
  t=2.0032     pending=3   [J1:exec@edge J3:up@cloud:1 J2:up@cloud:0]
  t=4.6549     pending=3   [J1:exec@edge J3:up@cloud:1 J2:up@cloud:0]
  t=5.6747     pending=3   [J1:exec@edge J3:exec@cloud:1 J2:up@cloud:0]
  t=7.9489     pending=3   [J1:exec@edge J3:exec@cloud:1 J2:up@cloud:0]
  t=8.0000     pending=3   [J1:exec@edge J3:exec@cloud:1 J2:up@cloud:0]
  t=8.1926     pending=4   [J1:exec@edge J3:exec@cloud:1 J4:exec@edge J2:up@cloud:0]
  t=9.7905     pending=4   [J1:exec@edge J3:down@cloud:1 J4:exec@edge J2:up@cloud:0]
  t=10.0128    pending=3   [J3:down@cloud:1 J4:exec@edge J2:up@cloud:0]
  t=10.7159    pending=3   [J3:down@cloud:1 J4:exec@edge]
  t=11.3430    pending=3   [J3:down@cloud:1 J4:exec@edge]
  t=12.0000    pending=3   [J3:down@cloud:1 J4:exec@edge J2:exec@cloud:0]
  t=14.7391    pending=3   [J3:down@cloud:1 J4:exec@edge J2:exec@cloud:0]
  t=16.8304    pending=3   [J3:down@cloud:1 J4:exec@edge J2:down@cloud:0]
  t=18.2148    pending=2   [J4:exec@edge J2:down@cloud:0]
  t=20.2700    pending=2   [J4:exec@edge J2:down@cloud:0]
  t=22.6925    pending=1   [J2:down@cloud:0]
  t=23.1496    pending=1   [J2:down@cloud:0]
";
    const SSF_EDF: &str = "\
event trace (19 decisions):
  t=0.9582     pending=1   [J1:exec@edge]
  t=1.6197     pending=2   [J1:exec@edge J2:up@cloud:0]
  t=2.0032     pending=3   [J3:exec@edge J1:up@cloud:0 J2:up@cloud:1]
  t=4.6549     pending=3   [J3:exec@edge J1:up@cloud:0 J2:up@cloud:1]
  t=6.6719     pending=3   [J3:exec@edge J1:exec@cloud:0 J2:up@cloud:1]
  t=7.9489     pending=3   [J3:exec@edge J1:exec@cloud:0 J2:up@cloud:1]
  t=8.0000     pending=3   [J3:exec@edge J2:up@cloud:1]
  t=8.1926     pending=4   [J3:exec@edge J4:exec@edge J2:up@cloud:1]
  t=10.2347    pending=3   [J4:exec@edge J2:up@cloud:1]
  t=11.0994    pending=3   [J4:exec@edge J2:exec@cloud:1]
  t=11.3430    pending=3   [J4:exec@edge J2:exec@cloud:1]
  t=12.0000    pending=3   [J1:exec@cloud:0 J4:exec@edge J2:exec@cloud:1]
  t=14.7391    pending=3   [J1:exec@cloud:0 J4:exec@edge J2:exec@cloud:1]
  t=15.1992    pending=3   [J1:down@cloud:0 J4:exec@edge J2:exec@cloud:1]
  t=15.9298    pending=3   [J1:down@cloud:0 J4:exec@edge J2:down@cloud:1]
  t=18.9494    pending=2   [J4:exec@edge J2:down@cloud:1]
  t=20.2700    pending=2   [J4:exec@edge J2:down@cloud:1]
  t=22.6925    pending=1   [J2:down@cloud:1]
  t=23.1496    pending=1   [J2:down@cloud:1]
";
    let dir = std::env::temp_dir().join(format!("mmsec-cli-verbose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.txt");
    let out = mmsec()
        .args(["gen", "random", "--n", "4", "--seed", "8"])
        .output()
        .expect("gen runs");
    assert!(out.status.success());
    let mut text = String::from_utf8(out.stdout).unwrap();
    text.push_str("window 0 8 12\n");
    std::fs::write(&inst, text).unwrap();

    for (policy, expected) in [("srpt", SRPT), ("ssf-edf", SSF_EDF)] {
        let out = mmsec()
            .args(["run", "--instance", inst.to_str().unwrap(), "-v"])
            .args(["--policy", policy])
            .args(["--fault-mtbf", "100", "--fault-mttr", "5"])
            .args(["--fault-seed", "3"])
            .output()
            .expect("verbose run runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let trace = &stdout[stdout.find("event trace").expect("trace block")..];
        assert_eq!(trace, expected, "{policy}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
