//! `mmsec` — command-line front-end to the library: generate instances,
//! schedule them with any policy, validate, draw Gantt charts, and export
//! observability artifacts (metrics JSON, Perfetto-compatible traces).
//!
//! ```text
//! mmsec gen random --n 50 --ccr 1.0 --load 0.05 --seed 42 --out inst.txt
//! mmsec gen kang   --n 50 --edges 20 --seed 42 --out inst.txt
//! mmsec run --instance inst.txt --policy ssf-edf [--gantt] [--per-job]
//!           [--trace trace.json] [--metrics metrics.json] [-v]
//! mmsec compare --instance inst.txt
//! mmsec trace export --instance inst.txt --out trace.ndjson
//! mmsec trace import --trace trace.ndjson --out inst.txt
//! ```

use mmsec_apps::cli::{fail, CliError};
use mmsec_apps::serve::{serve, ServeConfig};
use mmsec_apps::server::{run_listener, run_sharded, Listen, ServerConfig};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::{
    ChromeTraceWriter, Event, Fanout, FlightRecorder, MetricsRecorder, PhaseKind, PhaseProfiler,
    Shared,
};
use mmsec_platform::{
    gantt, validate, CloudId, FaultConfig, GanttOptions, Instance, JobId, Observer, Phase,
    Simulation, StretchReport, Target,
};
use mmsec_workload::{KangConfig, RandomCcrConfig};
use std::collections::HashMap;
use std::io::{BufReader, Write};

fn usage() -> ! {
    fail(CliError::Usage(format!(
        "usage:\n  mmsec gen random --n N [--ccr X] [--load X] [--seed N] [--out FILE]\n  \
         mmsec gen kang --n N [--edges N] [--load X] [--seed N] [--out FILE]\n  \
         mmsec run --instance FILE [--policy NAME] [--seed N] [--gantt] [--per-job]\n    \
         [--export FILE.csv] [--svg FILE.svg] [--trace FILE.json] [--metrics FILE.json]\n    \
         [--profile FILE.json] [--fault-mtbf SECS [--fault-mttr SECS] [--fault-seed N]] [-v]\n  \
         mmsec compare --instance FILE\n  \
         mmsec trace export --instance FILE [--out FILE.ndjson]\n  \
         mmsec trace import [--trace FILE.ndjson] [--out FILE]\n  \
         mmsec serve --instance FILE [--policy NAME] [--seed N] [--input FILE]\n    \
         [--max-pending N] [--heartbeat SECS] [--stats-every N]\n    \
         [--trace FILE.json] [--metrics FILE.json]\n  \
         mmsec serve --instance FILE [--listen unix:PATH|tcp:ADDR] [--shards N]\n    \
         [--max-queue N] [--global-pending N] [--server-heartbeat-ms N] [--once]\n    \
         [--policy NAME] [--seed N] [--max-pending N] [--heartbeat SECS] [--stats-every N]\n\n\
         policies: {}",
        PolicyKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    )));
}

/// Parses `--flag [value]` pairs, rejecting anything not in `allowed`
/// Boolean switches: every other accepted flag requires a value.
const SWITCHES: &[&str] = &["gantt", "per-job", "verbose", "once"];

/// Parses `--flag [value]` pairs, rejecting anything not in `allowed`
/// (so a typo like `--polcy` fails loudly instead of being ignored) and
/// value-taking flags with a missing value (so `--trace` alone does not
/// silently write a file named `true`).
/// `-v` is accepted as shorthand for `--verbose`.
fn parse_flags(args: &[String], allowed: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = if args[i] == "-v" {
            "verbose"
        } else {
            match args[i].strip_prefix("--") {
                Some(key) => key,
                None => usage(),
            }
        };
        if !allowed.contains(&key) {
            fail(CliError::Usage(format!(
                "unknown flag --{key}\naccepted flags: {}",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        if SWITCHES.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => fail(CliError::Usage(format!("flag --{key} requires a value"))),
            }
        }
    }
    flags
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(CliError::Usage(format!("bad value for --{key}: {v}")))),
    }
}

fn load_instance(flags: &HashMap<String, String>) -> Instance {
    let Some(path) = flags.get("instance") else {
        usage();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(CliError::io(path, e)));
    Instance::from_text(&text)
        .unwrap_or_else(|e| fail(CliError::Validation(format!("cannot parse {path}: {e}"))))
}

/// The `run -v` event trace: one line per decision point (invoked or
/// gated), holding its time, its pending count, and the activities the
/// engine then granted, read from that step's `Placed` events.
#[derive(Default)]
struct DecisionLog {
    lines: Vec<(f64, usize, Vec<String>)>,
}

impl Observer for DecisionLog {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::DecideStart { t, pending } | Event::DecideSkipped { t, pending } => {
                self.lines.push((t.seconds(), *pending, Vec::new()));
            }
            Event::Placed {
                job, cloud, phase, ..
            } => {
                let phase = match phase {
                    PhaseKind::Uplink => Phase::Uplink,
                    PhaseKind::Compute => Phase::Compute,
                    PhaseKind::Downlink => Phase::Downlink,
                };
                // A transfer's `target` is its origin edge's port; print
                // the cloud the job is committed to instead.
                let target = cloud.map_or(Target::Edge, |k| Target::Cloud(CloudId(k)));
                if let Some((_, _, acts)) = self.lines.last_mut() {
                    acts.push(format!("{}:{phase}@{target}", JobId(*job)));
                }
            }
            _ => {}
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "gen" => {
            let Some(kind) = args.get(1) else { usage() };
            let flags = parse_flags(&args[2..], &["n", "ccr", "load", "edges", "seed", "out"]);
            let seed: u64 = get(&flags, "seed", 42);
            let inst = match kind.as_str() {
                "random" => RandomCcrConfig {
                    n: get(&flags, "n", 50),
                    ccr: get(&flags, "ccr", 1.0),
                    load: get(&flags, "load", 0.05),
                    ..RandomCcrConfig::default()
                }
                .generate(seed),
                "kang" => KangConfig {
                    n: get(&flags, "n", 50),
                    num_edge: get(&flags, "edges", 20),
                    load: get(&flags, "load", 0.05),
                    ..KangConfig::default()
                }
                .generate(seed),
                _ => usage(),
            };
            let text = inst.to_text();
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, text).unwrap_or_else(|e| fail(CliError::io(path, e)));
                    eprintln!(
                        "wrote {} jobs on {} edges / {} clouds to {path}",
                        inst.num_jobs(),
                        inst.spec.num_edge(),
                        inst.spec.num_cloud()
                    );
                }
                None => print!("{text}"),
            }
        }
        "run" => {
            let flags = parse_flags(
                &args[1..],
                &[
                    "instance",
                    "policy",
                    "seed",
                    "gantt",
                    "per-job",
                    "export",
                    "svg",
                    "trace",
                    "metrics",
                    "profile",
                    "verbose",
                    "fault-mtbf",
                    "fault-mttr",
                    "fault-seed",
                ],
            );
            let inst = load_instance(&flags);
            let policy_name = flags.get("policy").map(String::as_str).unwrap_or("ssf-edf");
            let Some(kind) = PolicyKind::parse(policy_name) else {
                fail(CliError::Usage(format!("unknown policy {policy_name}")));
            };
            let mut policy = kind.build(get(&flags, "seed", 0));

            // Fault injection: --fault-mtbf enables a uniform seeded
            // exponential crash/recover model on every unit (docs/faults.md).
            if !flags.contains_key("fault-mtbf")
                && (flags.contains_key("fault-mttr") || flags.contains_key("fault-seed"))
            {
                fail(CliError::Usage(
                    "--fault-mttr/--fault-seed require --fault-mtbf".into(),
                ));
            }
            let fault_plan = flags.contains_key("fault-mtbf").then(|| {
                let mtbf: f64 = get(&flags, "fault-mtbf", 0.0);
                let mttr: f64 = get(&flags, "fault-mttr", 10.0);
                if !(mtbf.is_finite() && mtbf > 0.0 && mttr.is_finite() && mttr > 0.0) {
                    fail(CliError::Usage(
                        "--fault-mtbf/--fault-mttr must be positive seconds".into(),
                    ));
                }
                let fault_seed: u64 = get(&flags, "fault-seed", 1);
                let horizon = mmsec_bench::experiments::fault_horizon(&inst);
                FaultConfig::uniform_exponential(
                    inst.spec.num_edge(),
                    inst.spec.num_cloud(),
                    mtbf,
                    mttr,
                )
                .compile(fault_seed, horizon)
            });

            // Observability: register the requested sinks plus an
            // always-on flight recorder (pure telemetry — the run is
            // bit-identical with or without observers, and the ring is
            // what makes a stall dump possible at all), shared between
            // the engine and the policy (SSF-EDF reports its
            // binary-search probes).
            let metrics = Shared::new(MetricsRecorder::new());
            let chrome = Shared::new(ChromeTraceWriter::new());
            let flight = Shared::new(FlightRecorder::default());
            let decisions = Shared::new(DecisionLog::default());
            let mut fan = Fanout::new();
            if flags.contains_key("metrics") {
                fan.push(Box::new(metrics.clone()));
            }
            if flags.contains_key("trace") {
                fan.push(Box::new(chrome.clone()));
            }
            if flags.contains_key("verbose") {
                fan.push(Box::new(decisions.clone()));
            }
            fan.push(Box::new(flight.clone()));
            let shared_fan = Shared::new(fan);
            policy.attach_observer(shared_fan.handle());
            let mut engine_side = shared_fan.clone();

            let mut profiler = PhaseProfiler::new();
            let profiling = flags.contains_key("profile");

            let mut sim = Simulation::of(&inst)
                .policy(policy.as_mut())
                .observer(&mut engine_side);
            if let Some(plan) = &fault_plan {
                sim = sim.faults(plan);
            }
            if profiling {
                sim = sim.profiler(&mut profiler);
            }
            let out = sim.run().unwrap_or_else(|e| {
                let mut msg = format!("simulation failed: {e}");
                if let Some(path) = flight.with(|f| f.dump("run")) {
                    msg.push_str(&format!(" (flight recording: {})", path.display()));
                }
                fail(CliError::Failure(msg))
            });
            if let Err(violations) = validate(&inst, &out.schedule) {
                let mut msg = format!("INVALID schedule ({} violations):", violations.len());
                for v in violations.iter().take(10) {
                    msg.push_str(&format!("\n  {v}"));
                }
                fail(CliError::Validation(msg));
            }
            let report = StretchReport::new(&inst, &out.schedule);
            let offloaded = out
                .schedule
                .alloc
                .iter()
                .filter(|a| matches!(a, Some(Target::Cloud(_))))
                .count();
            println!("policy        {}", kind.name());
            println!("jobs          {}", inst.num_jobs());
            println!("max stretch   {:.4}", report.max_stretch);
            println!("mean stretch  {:.4}", report.mean_stretch);
            println!("max response  {:.4}", report.max_response);
            println!("offloaded     {}/{}", offloaded, inst.num_jobs());
            if let Some(plan) = &fault_plan {
                println!(
                    "faults        mtbf {} mttr {} seed {} ({} downtime windows)",
                    get::<f64>(&flags, "fault-mtbf", 0.0),
                    get::<f64>(&flags, "fault-mttr", 10.0),
                    get::<u64>(&flags, "fault-seed", 1),
                    plan.total_windows()
                );
            }
            println!("re-executions {}", out.stats.restarts);
            println!("events        {}", out.stats.events);
            println!("decide time   {:?}", out.stats.decide_time);
            if flags.contains_key("per-job") {
                println!("\njob  target     stretch");
                for (id, _) in inst.iter_jobs() {
                    println!(
                        "{:<4} {:<10} {:.4}",
                        id.to_string(),
                        out.schedule.alloc[id.0].expect("allocated").to_string(),
                        report.stretches[id.0]
                    );
                }
            }
            if flags.contains_key("gantt") {
                println!("\n{}", gantt(&inst, &out.schedule, GanttOptions::default()));
            }
            if flags.contains_key("verbose") {
                decisions.with(|log| {
                    println!("\nevent trace ({} decisions):", log.lines.len());
                    for (t, pending, acts) in &log.lines {
                        println!("  t={t:<10.4} pending={pending:<3} [{}]", acts.join(" "));
                    }
                });
            }
            if let Some(path) = flags.get("metrics") {
                let doc = metrics.with(|m| m.to_json_string());
                std::fs::write(path, doc).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("wrote run metrics to {path}");
            }
            if let Some(path) = flags.get("trace") {
                let doc = chrome.with(|c| c.to_json_string());
                std::fs::write(path, doc).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
            }
            if let Some(path) = flags.get("profile") {
                let doc = profiler.to_json_string();
                std::fs::write(path, doc).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("wrote phase profile to {path}");
            }
            if let Some(path) = flags.get("export") {
                let csv = mmsec_platform::export::schedule_to_csv(&inst, &out.schedule);
                std::fs::write(path, csv).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("exported activity trace to {path}");
            }
            if let Some(path) = flags.get("svg") {
                let svg = mmsec_platform::svg::schedule_to_svg(
                    &inst,
                    &out.schedule,
                    mmsec_platform::svg::SvgOptions::default(),
                );
                std::fs::write(path, svg).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("rendered SVG gantt to {path}");
            }
        }
        "trace" => {
            let mode = args.get(1).map(String::as_str).unwrap_or("");
            match mode {
                "export" => {
                    let flags = parse_flags(&args[2..], &["instance", "out"]);
                    let inst = load_instance(&flags);
                    let mut buf = Vec::new();
                    mmsec_apps::trace::write_trace(&inst, &mut buf).unwrap_or_else(|e| fail(e));
                    match flags.get("out") {
                        Some(path) => {
                            std::fs::write(path, &buf)
                                .unwrap_or_else(|e| fail(CliError::io(path, e)));
                            eprintln!(
                                "exported {} job(s) as an NDJSON trace to {path}",
                                inst.jobs.len()
                            );
                        }
                        None => {
                            std::io::stdout()
                                .write_all(&buf)
                                .unwrap_or_else(|e| fail(CliError::Io(format!("stdout: {e}"))));
                        }
                    }
                }
                "import" => {
                    let flags = parse_flags(&args[2..], &["trace", "out"]);
                    let inst = match flags.get("trace") {
                        Some(path) => {
                            let file = std::fs::File::open(path)
                                .unwrap_or_else(|e| fail(CliError::io(path, e)));
                            mmsec_apps::trace::read_trace(BufReader::new(file))
                        }
                        None => {
                            let stdin = std::io::stdin();
                            mmsec_apps::trace::read_trace(stdin.lock())
                        }
                    }
                    .unwrap_or_else(|e| fail(e));
                    let text = inst.to_text();
                    match flags.get("out") {
                        Some(path) => {
                            std::fs::write(path, &text)
                                .unwrap_or_else(|e| fail(CliError::io(path, e)));
                            eprintln!(
                                "imported {} job(s) into instance file {path}",
                                inst.jobs.len()
                            );
                        }
                        None => print!("{text}"),
                    }
                }
                _ => usage(),
            }
        }
        "compare" => {
            let flags = parse_flags(&args[1..], &["instance"]);
            let inst = load_instance(&flags);
            println!("policy      max-stretch  mean-stretch  re-exec  decide-time");
            for kind in PolicyKind::ALL {
                if kind == PolicyKind::CloudOnly && inst.spec.num_cloud() == 0 {
                    continue;
                }
                let mut policy = kind.build(0);
                let out = Simulation::of(&inst)
                    .policy(policy.as_mut())
                    .run()
                    .unwrap_or_else(|e| fail(CliError::Failure(format!("{kind} failed: {e}"))));
                if validate(&inst, &out.schedule).is_err() {
                    fail(CliError::Validation(format!("{kind}: INVALID schedule")));
                }
                let r = StretchReport::new(&inst, &out.schedule);
                println!(
                    "{:<11} {:>11.4} {:>13.4} {:>8} {:>12.1?}",
                    kind.name(),
                    r.max_stretch,
                    r.mean_stretch,
                    out.stats.restarts,
                    out.stats.decide_time
                );
            }
        }
        "serve" => {
            let flags = parse_flags(
                &args[1..],
                &[
                    "instance",
                    "policy",
                    "seed",
                    "input",
                    "max-pending",
                    "heartbeat",
                    "stats-every",
                    "trace",
                    "metrics",
                    "listen",
                    "shards",
                    "max-queue",
                    "global-pending",
                    "server-heartbeat-ms",
                    "once",
                ],
            );
            let inst = load_instance(&flags);
            let policy_name = flags.get("policy").map(String::as_str).unwrap_or("ssf-edf");
            let Some(kind) = PolicyKind::parse(policy_name) else {
                fail(CliError::Usage(format!("unknown policy {policy_name}")));
            };
            let cfg = ServeConfig {
                policy: kind,
                seed: get(&flags, "seed", 0),
                heartbeat: get(&flags, "heartbeat", 10.0),
                max_pending: flags
                    .contains_key("max-pending")
                    .then(|| get(&flags, "max-pending", 0usize)),
                stats_every: flags
                    .contains_key("stats-every")
                    .then(|| get(&flags, "stats-every", 0usize)),
            };

            // Any sharded-server flag selects the sharded runtime; with
            // none of them, this is the exact legacy single-session path.
            let sharded = ["listen", "shards", "max-queue", "global-pending", "once"]
                .iter()
                .any(|k| flags.contains_key(*k))
                || flags.contains_key("server-heartbeat-ms");
            if sharded {
                for bad in ["input", "trace", "metrics"] {
                    if flags.contains_key(bad) {
                        fail(CliError::Usage(format!(
                            "--{bad} applies to single-session serving, \
                             not the sharded server"
                        )));
                    }
                }
                let server_cfg = ServerConfig {
                    serve: cfg,
                    shards: get(&flags, "shards", 1usize),
                    max_queue: flags
                        .contains_key("max-queue")
                        .then(|| get(&flags, "max-queue", 0usize)),
                    global_pending: flags
                        .contains_key("global-pending")
                        .then(|| get(&flags, "global-pending", 0usize)),
                    heartbeat_ms: get(&flags, "server-heartbeat-ms", 1000u64),
                };
                match flags.get("listen") {
                    Some(spec) => {
                        let listen = Listen::parse(spec).unwrap_or_else(|e| fail(e));
                        let once = flags.contains_key("once");
                        run_listener(&inst, &server_cfg, &listen, once).unwrap_or_else(|e| fail(e));
                    }
                    None => {
                        if flags.contains_key("once") {
                            fail(CliError::Usage("--once requires --listen".into()));
                        }
                        let stdin = std::io::stdin();
                        let summary = run_sharded(
                            &inst,
                            &server_cfg,
                            stdin.lock(),
                            std::io::BufWriter::new(std::io::stdout()),
                        )
                        .unwrap_or_else(|e| fail(e));
                        eprintln!(
                            "served {} line(s): {} admitted, {} shed, {} rejected, \
                             {} completed, {} tenant(s)",
                            summary.lines,
                            summary.admitted,
                            summary.shed,
                            summary.rejected,
                            summary.completed,
                            summary.tenants
                        );
                    }
                }
                return;
            }

            // Observability sinks, exactly as in `run`.
            let metrics = Shared::new(MetricsRecorder::new());
            let chrome = Shared::new(ChromeTraceWriter::new());
            let mut fan = Fanout::new();
            if flags.contains_key("metrics") {
                fan.push(Box::new(metrics.clone()));
            }
            if flags.contains_key("trace") {
                fan.push(Box::new(chrome.clone()));
            }
            let observing = !fan.is_empty();
            let mut shared_fan = Shared::new(fan);
            let observer: Option<&mut dyn mmsec_platform::Observer> =
                observing.then_some(&mut shared_fan as _);

            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            let result = match flags.get("input") {
                Some(path) => {
                    let file =
                        std::fs::File::open(path).unwrap_or_else(|e| fail(CliError::io(path, e)));
                    serve(&inst, &cfg, BufReader::new(file), &mut out, observer)
                }
                None => {
                    let stdin = std::io::stdin();
                    serve(&inst, &cfg, stdin.lock(), &mut out, observer)
                }
            };
            out.flush()
                .unwrap_or_else(|e| fail(CliError::Io(format!("stdout: {e}"))));
            let summary = result.unwrap_or_else(|e| fail(e));
            if let Some(path) = flags.get("metrics") {
                let doc = metrics.with(|m| m.to_json_string());
                std::fs::write(path, doc).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("wrote run metrics to {path}");
            }
            if let Some(path) = flags.get("trace") {
                let doc = chrome.with(|c| c.to_json_string());
                std::fs::write(path, doc).unwrap_or_else(|e| fail(CliError::io(path, e)));
                eprintln!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
            }
            eprintln!(
                "served {} line(s): {} admitted, {} shed, {} rejected, {} completed, \
                 max stretch {:.4}",
                summary.lines,
                summary.admitted,
                summary.shed,
                summary.rejected,
                summary.completed,
                summary.max_stretch
            );
        }
        _ => usage(),
    }
}
