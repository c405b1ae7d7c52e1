//! The served workloads: 16 tenants sent open loop over the socket of a
//! running `mmsec serve --listen`, first at a fixed nominal rate
//! (latency), then up a fixed rate ladder (the highest rate meeting the
//! 50 ms p99 service limit).
//!
//! * `serve-steady`: SSF-EDF lanes on the default 2-edge/2-cloud
//!   platform, job submissions only (today's `LoadPlan` script). Decide
//!   is cheap, so the codec, router, queues, merger and socket dominate.
//! * `serve-churn`: SRPT lanes, each tenant opening with a `spec` record
//!   (4 slow edges, 4 clouds) and jobs with nonzero up/down transfers;
//!   every 250th line of a tenant is a platform mutation and about 0.5% of
//!   job lines are planted malformed (expected reject code `bad-type`).

use crate::calib::Calibrator;
use crate::load::{self, LineKind, Outcome, Script};
use crate::report::Report;
use crate::server::Server;
use crate::trace::Tracer;
use crate::{alloc, mix_seed, peak_rss_mb, splitmix, stats, Env};
use mmsec_apps::ndjson::{parse_object_into, ObjBuf, ObjWriter, Value};
use mmsec_apps::serve::{serve, ServeConfig};
use mmsec_apps::server::{run_sharded, ServerConfig};
use mmsec_bench::load::{script as load_script, LoadPlan};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::PhaseProfiler;
use mmsec_platform::{validate, CloudId, EdgeId, Instance, Job, PlatformMutation, Simulation};
use std::hint::black_box;
use std::time::Instant;

/// The server's default platform: two edges and two clouds.
pub const PLATFORM: &str = "# mmsec-instance v1\nedge 1.0\nedge 1.0\ncloud 2.0\ncloud 2.0\n";
/// The service limit on acknowledgement p99.
pub const LIMIT_MS: f64 = 50.0;
const TENANTS: usize = 16;
/// Share of the run spent at the nominal rate; the ladder takes the rest.
const NOMINAL_SHARE: f64 = 0.2;
/// Ladder rungs per run: at 25 s a rung lasts about 0.77 s, long enough
/// that a rate the server can only absorb as a short burst fails on its
/// backlog.
const RUNGS: usize = 26;
/// Fewest lines in a rung, so its p99 has ten samples beyond it.
const RUNG_MIN_LINES: usize = 1_000;
/// Window over which ack quantiles are taken before their median: at the
/// nominal rates it holds 1 200–1 600 acknowledgements, so its p99 still
/// has more than ten samples beyond it.
const WINDOW_NS: u64 = 100_000_000;
/// Ladder grid: rung `k` offers `nominal · RATIO^k` lines per second.
const RATIO: f64 = 1.05;
/// The staircase's first step: 8 rungs, a factor of 1.48.
const COARSE: u32 = 8;
const MAX_RUNG: u32 = 110;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Steady,
    Churn,
}

impl Mix {
    pub fn policy(self) -> PolicyKind {
        match self {
            Mix::Steady => PolicyKind::SsfEdf,
            Mix::Churn => PolicyKind::Srpt,
        }
    }

    /// The fixed nominal rate, in lines per second, at which latency is
    /// measured: well below the knee on a 2-core host.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Mix::Steady => 16_000.0,
            Mix::Churn => 12_000.0,
        }
    }
}

/// A script plus what replaying it in memory needs.
pub struct Served {
    pub script: Script,
    /// The platform each tenant's lane runs on (no jobs).
    pub insts: Vec<Instance>,
    pub policy: PolicyKind,
}

impl Served {
    /// Tenant `t`'s lane lines (everything but its `spec` record).
    fn lane_text(&self, t: usize) -> Vec<&str> {
        self.script
            .lane_lines(t)
            .map(|i| self.script.lines[i].as_str())
            .collect()
    }
}

fn default_instance() -> Instance {
    Instance::from_text(PLATFORM).expect("the default platform parses")
}

/// The lane platform a `spec` record describes, parsed by the same codec
/// the server uses.
fn spec_instance(spec_line: &str) -> Instance {
    mmsec_apps::trace::read_trace(spec_line.as_bytes()).expect("generated spec records parse")
}

/// Generates the workload's script of about `jobs` submissions.
pub fn script(mix: Mix, seed: u64, jobs: usize) -> Served {
    let edges = match mix {
        Mix::Steady => 2,
        Mix::Churn => 4,
    };
    let plan = LoadPlan {
        jobs,
        tenants: TENANTS,
        mean_gap: 1.0,
        mean_work: 0.8,
        edges,
        seed,
    };
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
    let mut s = Script {
        tenants: tenants.clone(),
        ..Script::default()
    };
    let push = |s: &mut Script, line: String, kind, t| {
        s.lines.push(line);
        s.kind.push(kind);
        s.tenant.push(t);
    };
    if mix == Mix::Steady {
        for job in load_script(&plan) {
            push(&mut s, job.line, LineKind::Job, job.tenant);
        }
        let insts = vec![default_instance(); TENANTS];
        return Served {
            script: s,
            insts,
            policy: mix.policy(),
        };
    }
    let spec = |t: usize| {
        format!(
            "{{\"type\": \"spec\", \"tenant\": \"t{t}\", \"edges\": 4, \"edge-speed\": 0.5, \
             \"clouds\": 4, \"cloud-speed\": 2.0}}\n"
        )
    };
    let mut lane_lines = [0usize; TENANTS];
    let mut ops = [0usize; TENANTS];
    let mut rng = splitmix(seed ^ 0xc0ff_ee00);
    for (i, job) in load_script(&plan).into_iter().enumerate() {
        let t = job.tenant;
        if lane_lines[t] == 0 {
            push(&mut s, spec(t), LineKind::Spec, t);
        }
        if (lane_lines[t] + 1).is_multiple_of(250) {
            let m = ops[t];
            ops[t] += 1;
            let unit = (m / 3) % 4;
            let x = if (m / 3).is_multiple_of(2) { 1.5 } else { 2.5 };
            let body = match m % 3 {
                0 => "\"op\": \"add-cloud\", \"speed\": 2.0".to_string(),
                1 => format!("\"op\": \"set-cloud-speed\", \"unit\": {unit}, \"speed\": {x}"),
                _ => format!(
                    "\"op\": \"set-link\", \"unit\": {unit}, \"factor\": {}",
                    x - 1.0
                ),
            };
            let line = format!("{{\"tenant\": \"t{t}\", \"type\": \"platform\", {body}}}\n");
            push(&mut s, line, LineKind::Platform, t);
            lane_lines[t] += 1;
        }
        // Nonzero transfers proportional to the job's work (each an
        // exponential multiple with mean 0.25, so CCR ≈ 0.5): fixed-size
        // transfers would make the stretch of the tiniest jobs, not the
        // schedule, set every tenant's max-stretch.
        let body = job.line.trim_end().trim_end_matches('}');
        let work: f64 = body
            .rsplit("\"work\": ")
            .next()
            .and_then(|w| w.parse().ok())
            .expect("scripted jobs end with their work");
        let mut exp = || -0.25 * (1.0 - (rng() >> 11) as f64 / (1u64 << 53) as f64).ln();
        let (up, dn) = (work * exp(), work * exp());
        let mut line = format!("{body}, \"up\": {up:.4}, \"dn\": {dn:.4}}}\n");
        let mut kind = LineKind::Job;
        if splitmix(mix_seed(seed, i as u64))().is_multiple_of(200) {
            let at = line
                .find("\"release\": ")
                .expect("scripted jobs carry a release");
            let end = at + line[at..].find(',').expect("release is not the last field");
            line.replace_range(at..end, "\"release\": \"oops\"");
            kind = LineKind::Planted;
        }
        push(&mut s, line, kind, t);
        lane_lines[t] += 1;
    }
    let insts = (0..TENANTS).map(|t| spec_instance(&spec(t))).collect();
    Served {
        script: s,
        insts,
        policy: mix.policy(),
    }
}

/// The `n` earliest-released jobs of a batch instance as a served script:
/// four tenants, each opening with the batch platform's `spec` record,
/// taking the jobs round-robin in release order, scheduled by SRPT.
pub fn batch_slice(inst: &Instance, n: usize) -> Served {
    let mut text = Vec::new();
    let mut jobs = inst.jobs.clone();
    jobs.sort_by_key(|j| j.release);
    jobs.truncate(n);
    let head = Instance {
        spec: inst.spec.clone(),
        jobs,
    };
    mmsec_apps::trace::write_trace(&head, &mut text).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(text).expect("the trace codec writes UTF-8");
    let mut lines = text.lines();
    let spec = lines.next().expect("a trace starts with its spec record");
    let tenants = 4;
    let tag = |line: &str, t: usize| {
        let (kind, rest) = line
            .split_once(',')
            .expect("records carry more than a type");
        format!("{kind},\"tenant\":\"b{t}\",{rest}\n")
    };
    let mut s = Script {
        tenants: (0..tenants).map(|t| format!("b{t}")).collect(),
        ..Script::default()
    };
    for t in 0..tenants {
        s.lines.push(tag(spec, t));
        s.kind.push(LineKind::Spec);
        s.tenant.push(t);
    }
    for (i, line) in lines.enumerate() {
        s.lines.push(tag(line, i % tenants));
        s.kind.push(LineKind::Job);
        s.tenant.push(i % tenants);
    }
    let insts = (0..tenants).map(|t| spec_instance(&s.lines[t])).collect();
    Served {
        script: s,
        insts,
        policy: PolicyKind::Srpt,
    }
}

/// Counts the outcome's failures against `served`: every line must get
/// the acknowledgement its kind calls for, every admit exactly one
/// completion, and the server's own totals must add up. Returns the
/// number of failed operations; records each violation.
fn check_outcome(served: &Served, out: &Outcome, report: &mut Report, phase: &str) -> u64 {
    use load::Ack;
    let s = &served.script;
    let mut failed = 0u64;
    let mut first = None;
    for i in 0..s.len() {
        let ok = matches!(
            (s.kind[i], out.ack[i]),
            (LineKind::Job, Ack::Admit)
                | (LineKind::Spec, Ack::SpecOk)
                | (LineKind::Platform, Ack::PlatformOk)
                | (LineKind::Planted, Ack::Reject(true))
        );
        if !ok {
            failed += 1;
            first.get_or_insert((i, s.kind[i], out.ack[i]));
        }
    }
    if let Some((i, kind, ack)) = first {
        report.violation(format!(
            "{phase}: {failed} line(s) wrongly acknowledged; first: line {i} ({kind:?}) got {ack:?}"
        ));
    }
    for (t, tally) in out.tenants.iter().enumerate() {
        let mut a = tally.admitted.clone();
        let mut c = tally.completed.clone();
        a.sort_unstable();
        c.sort_unstable();
        if a != c {
            let missing = a.len().abs_diff(c.len()).max(1) as u64;
            failed += missing;
            report.violation(format!(
                "{phase}: tenant {t}: {} admit(s) but {} completion(s)",
                a.len(),
                c.len()
            ));
        }
    }
    if out.stray > 0 {
        failed += out.stray;
        report.violation(format!("{phase}: {} stray or error record(s)", out.stray));
    }
    // admitted + shed + rejected = submissions sent (spec and platform
    // records are acknowledged but not counted as either).
    let count = |f: &dyn Fn(&Ack) -> bool| out.ack.iter().filter(|a| f(a)).count() as u64;
    let admitted = count(&|a| *a == Ack::Admit);
    let shed = count(&|a| *a == Ack::Shed);
    let rejected = count(&|a| matches!(a, Ack::Reject(_)));
    let submissions = s
        .kind
        .iter()
        .filter(|k| matches!(k, LineKind::Job | LineKind::Planted))
        .count() as u64;
    match out.server_summary {
        Some([lines, adm, sh, rej, _])
            if lines == s.len() as u64
                && [adm, sh, rej] == [admitted, shed, rejected]
                && adm + sh + rej == submissions => {}
        other => {
            failed += 1;
            report.violation(format!(
                "{phase}: server-summary {other:?} does not add up to {} line(s) sent \
                 ({admitted} admitted, {shed} shed, {rejected} rejected)",
                s.len()
            ));
        }
    }
    report.attempt(s.len() as u64);
    report.fail(failed);
    failed
}

/// Replays each tenant's lines through an in-memory `serve::serve` and
/// checks its max-stretch is bit-identical to the one served over the
/// socket. Returns the per-tenant max-stretch values.
fn check_stretch(served: &Served, out: &Outcome, report: &mut Report) -> Vec<f64> {
    let mut stretch = Vec::new();
    for t in 0..served.insts.len() {
        let text: String = served.lane_text(t).concat();
        let cfg = ServeConfig {
            policy: served.policy,
            ..ServeConfig::default()
        };
        let sum = serve(
            &served.insts[t],
            &cfg,
            text.as_bytes(),
            std::io::sink(),
            None,
        )
        .expect("in-memory replay of generated lines succeeds");
        let socket = out.tenants[t].summary_max_stretch;
        if socket.map(f64::to_bits) != Some(sum.max_stretch.to_bits()) {
            report.violation(format!(
                "tenant {t}: socket max-stretch {socket:?} != in-memory replay {}",
                sum.max_stretch
            ));
            report.fail(1);
        }
        stretch.push(sum.max_stretch);
    }
    stretch
}

/// Server starts per run; the median calibrated start-up is `setup_s`.
const STARTS: usize = 25;

/// Starts the server `STARTS` times and keeps the last one running.
fn start_server(
    env: &Env,
    policy: PolicyKind,
    cal: &mut Calibrator,
    report: &mut Report,
) -> Server {
    let platform = env.dir.join("platform.txt");
    std::fs::write(&platform, PLATFORM).expect("the run directory is writable");
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..STARTS {
        // Stop the previous server first: it owns the socket path.
        drop(server.take());
        let f = cal.factor();
        let (s, dt) = Server::spawn(&env.mmsec, &env.dir, &platform, policy.name(), env.shards)
            .unwrap_or_else(|e| panic!("starting the server: {e}"));
        setups.push(dt * f);
        server = Some(s);
    }
    report.metric("setup_s", "s", stats::median(&setups));
    server.expect("at least one start")
}

/// Sends `served` open loop at `rate` over a fresh connection.
fn send(server: &Server, served: &Served, rate: f64) -> Outcome {
    let stream = server
        .connect()
        .unwrap_or_else(|e| panic!("connecting: {e}"));
    load::run(stream, &served.script, rate).unwrap_or_else(|e| panic!("load: {e}"))
}

pub fn run(mix: Mix, name: &str, seed: u64, seconds: f64, traced: bool, env: &Env) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(format!("{name}-{seed}"));
    let mut cal = Calibrator::new();
    let server = start_server(env, mix.policy(), &mut cal, &mut report);
    let rate = mix.nominal_rate();
    let jobs = (rate * seconds * NOMINAL_SHARE) as usize;
    let served = tracer.span("workload.script", |_| script(mix, seed, jobs));
    let out = tracer.span("load.nominal", |_| send(&server, &served, rate));
    check_outcome(&served, &out, &mut report, "nominal");
    let stretch = check_stretch(&served, &out, &mut report);
    eprintln!("{name}: max-stretch per tenant {stretch:.3?}");
    eprintln!(
        "{name}: nominal {rate} lines/s, {}; {}",
        stats::describe("ack", "ms", &mut out.ack_ms()),
        stats::describe("late", "ms", &mut out.late_ms())
    );
    if traced {
        layers(&served, &out, &mut report, &mut tracer, true);
        env.write_trace(&tracer);
        return report;
    }
    let (p50, p99) = load::windowed_ack_ms(&out, WINDOW_NS);
    report.metric("latency_p50_ms", "ms", p50);
    report.metric("latency_p99_ms", "ms", p99);
    report.metric("max_stretch", "ratio", stats::median(&stretch));
    // The server has served exactly the nominal script so far.
    report.metric("peak_rss_mb", "MiB", peak_rss_mb(Some(server.pid())));

    let rates = ladder(mix, seed, seconds, &server, &mut cal, &mut report);
    report.metric("jobs_per_s", "jobs/s", rates);
    report.metric("ok_share", "ratio", report.ok_share());
    report
}

/// Walks the rate ladder for `RUNGS` rungs, each with its own script and
/// connection, and returns the rate at which the server meets the
/// service limit half the time, in job submissions per second at
/// reference host speed. Near the knee one rung's pass or fail is a coin
/// toss, so the walk is an up-down staircase (`stats::staircase`) and the
/// answer is the median over the rungs it visits once settled. Each
/// rung's rate counts job lines only (spec, platform and planted lines
/// are left out) and is scaled by the host-speed factor measured just
/// before it, while the server idles.
fn ladder(
    mix: Mix,
    seed: u64,
    seconds: f64,
    server: &Server,
    cal: &mut Calibrator,
    report: &mut Report,
) -> f64 {
    let rung_s = seconds * (1.0 - NOMINAL_SHARE) / RUNGS as f64;
    let mut passed = Vec::new();
    let mut visits = Vec::new();
    for r in 0..RUNGS {
        let (k, step) = stats::staircase(&passed, COARSE, MAX_RUNG);
        let rate = stats::grid_rate(mix.nominal_rate(), RATIO, k);
        let lines = ((rate * rung_s) as usize).max(RUNG_MIN_LINES);
        let served = script(mix, mix_seed(seed, 1_000 + r as u64), lines);
        let f = cal.factor();
        let out = send(server, &served, rate);
        let failed = check_outcome(&served, &out, report, &format!("rung {r}"));
        let sum = load::summarize(&out, rate);
        let rung = stats::Rung {
            rate,
            ack_p99_ms: sum.ack_p99_ms,
            shed: out.ack.iter().filter(|a| **a == load::Ack::Shed).count(),
            failed: failed as usize,
            backlog_grew: sum.backlog_grew,
        };
        let pass = rung.passes(LIMIT_MS);
        let jobs = served.script.kind.iter().filter(|k| **k == LineKind::Job);
        let job_rate = rate * jobs.count() as f64 / served.script.len() as f64 / f;
        eprintln!(
            "  rung {k:>2} (step {step}): {rate:>9.0} lines/s = {job_rate:>9.0} jobs/s at \
             reference speed  p99 {:>8.3} ms  late p99 {:>7.3} ms  backlog max {:>6}{}  {}",
            sum.ack_p99_ms,
            sum.late_p99_ms,
            sum.backlog_max,
            if sum.backlog_grew { " (growing)" } else { "" },
            if pass { "ok" } else { "over" }
        );
        passed.push(pass);
        visits.push(stats::Visit {
            rate: job_rate,
            step,
            passed: pass,
        });
    }
    stats::staircase_rate(&visits)
}

/// One tenant's replay through the public `Session` API.
struct Replay {
    ns: f64,
    jobs: Vec<Job>,
    events: u64,
    restarts: u64,
    platform_ops: u64,
    platform_ns: f64,
}

/// Replays lane lines through a `Session`: each job is submitted after
/// advancing to its release, each mutation applied where it falls, and
/// planted lines skipped — what the lane asks of the engine. With no
/// mutation in the lines, a fixed probe of nine mutations is applied at
/// the end so the apply cost is still measured.
fn replay(
    inst: &Instance,
    policy: PolicyKind,
    lines: &[&str],
    prof: Option<&mut PhaseProfiler>,
    decide: Option<&mut crate::DecideTimes>,
) -> Replay {
    let mut sim = Simulation::of(inst).policy_boxed(policy.build(0));
    if let Some(p) = prof {
        sim = sim.profiler(p);
    }
    if let Some(d) = decide {
        sim = sim.observer(d);
    }
    let mut session = sim.session();
    let mut fields = ObjBuf::new();
    let mut r = Replay {
        ns: 0.0,
        jobs: Vec::new(),
        events: 0,
        restarts: 0,
        platform_ops: 0,
        platform_ns: 0.0,
    };
    let apply = |session: &mut mmsec_platform::Session<'_>, m: PlatformMutation, r: &mut Replay| {
        let t = Instant::now();
        session
            .apply_platform(m)
            .expect("scripted mutations are valid");
        r.platform_ns += t.elapsed().as_nanos() as f64;
        r.platform_ops += 1;
    };
    let t0 = Instant::now();
    for line in lines {
        parse_object_into(line.trim_end(), &mut fields).expect("scripted lines parse");
        let get = |k: &str| {
            fields
                .fields()
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
        };
        let num = |k: &str| get(k).and_then(Value::as_num);
        match get("type").and_then(Value::as_str) {
            Some("platform") => {
                let unit = num("unit").unwrap_or(0.0) as usize;
                let m = match get("op").and_then(Value::as_str) {
                    Some("add-cloud") => PlatformMutation::AddCloud {
                        speed: num("speed").expect("add-cloud has a speed"),
                    },
                    Some("set-cloud-speed") => PlatformMutation::SetCloudSpeed {
                        cloud: CloudId(unit),
                        speed: num("speed").expect("set-cloud-speed has a speed"),
                    },
                    _ => PlatformMutation::SetLink {
                        edge: EdgeId(unit),
                        factor: num("factor").expect("set-link has a factor"),
                    },
                };
                apply(&mut session, m, &mut r);
            }
            _ => {
                let Some(release) = num("release") else {
                    continue; // a planted line: the lane rejects it
                };
                let job = Job::new(
                    EdgeId(num("origin").unwrap_or(0.0) as usize),
                    release,
                    num("work").expect("jobs have work"),
                    num("up").unwrap_or(0.0),
                    num("dn").unwrap_or(0.0),
                );
                session
                    .run_until(mmsec_sim::Time::new(release))
                    .expect("replay steps cleanly");
                session.submit(job).expect("scripted jobs are valid");
                r.jobs.push(job);
            }
        }
    }
    session.drain().expect("replay drains");
    r.ns = t0.elapsed().as_nanos() as f64;
    if r.platform_ops == 0 {
        for k in 0..9 {
            let m = match k % 3 {
                0 => PlatformMutation::AddCloud { speed: 2.0 },
                1 => PlatformMutation::SetCloudSpeed {
                    cloud: CloudId(k % 2),
                    speed: 1.5,
                },
                _ => PlatformMutation::SetLink {
                    edge: EdgeId(k % 2),
                    factor: 1.5,
                },
            };
            apply(&mut session, m, &mut r);
        }
    }
    let snap = session.snapshot();
    r.events = snap.run.events;
    r.restarts = snap.run.restarts;
    r
}

/// The per-layer figures of a served script whose socket phase produced
/// `out`. With `engine` set, the engine/core figures come from the
/// profiled `Session` replays (otherwise the caller measured them).
pub fn layers(
    served: &Served,
    out: &Outcome,
    report: &mut Report,
    tracer: &mut Tracer,
    engine: bool,
) {
    let script = &served.script;
    let n = script.len() as f64;
    let sum = load::summarize(out, 1.0);
    report.metric("load.late_p50_ms", "ms", sum.late_p50_ms);
    report.metric("load.late_p99_ms", "ms", sum.late_p99_ms);
    report.metric("load.backlog_max", "lines", sum.backlog_max as f64);
    report.metric("load.sent", "count", n);
    report.metric("load.acked", "count", out.acked() as f64);

    // ndjson: parse every line; render an `admit` record per line.
    let mut fields = ObjBuf::new();
    let t = Instant::now();
    tracer.span("ndjson.parse", |_| {
        for line in &script.lines {
            let _ = black_box(parse_object_into(black_box(line.trim_end()), &mut fields));
        }
    });
    report.metric(
        "ndjson.parse_ns_per_line",
        "ns",
        t.elapsed().as_nanos() as f64 / n,
    );
    let mut w = ObjWriter::typed("admit");
    let t = Instant::now();
    tracer.span("ndjson.write", |_| {
        for (i, line) in script.lines.iter().enumerate() {
            w.reset("admit");
            w.str_field("tenant", &script.tenants[script.tenant[i]])
                .num_field("line", i as f64)
                .num_field("job", i as f64)
                .num_field("release", line.len() as f64 * 0.37);
            black_box(w.close());
        }
    });
    report.metric(
        "ndjson.write_ns_per_record",
        "ns",
        t.elapsed().as_nanos() as f64 / n,
    );
    report.metric("ndjson.bytes_in", "bytes", script.bytes() as f64);
    report.metric("ndjson.bytes_out", "bytes", out.bytes_out as f64);

    // lane: one in-memory `serve::serve` per tenant.
    let (mut lane_ns, mut lane_lines, mut records, mut allocs) = (0.0, 0usize, 0usize, 0u64);
    for t in 0..served.insts.len() {
        let text: String = served.lane_text(t).concat();
        let cfg = ServeConfig {
            policy: served.policy,
            ..ServeConfig::default()
        };
        let mut buf = Vec::with_capacity(text.len() * 4);
        let t0 = Instant::now();
        let (_, a) = alloc::counted(|| {
            tracer.span("lane.serve", |_| {
                serve(&served.insts[t], &cfg, text.as_bytes(), &mut buf, None)
                    .expect("in-memory replay succeeds")
            })
        });
        lane_ns += t0.elapsed().as_nanos() as f64;
        allocs += a;
        lane_lines += served.lane_text(t).len();
        records += buf.iter().filter(|b| **b == b'\n').count();
    }
    let ll = lane_lines as f64;
    report.metric("lane.ns_per_line", "ns", lane_ns / ll);
    report.metric("lane.records_per_line", "ratio", records as f64 / ll);
    report.metric("lane.allocs_per_line", "allocs/line", allocs as f64 / ll);

    // engine and core: bare and profiled `Session` replays per tenant.
    let mut prof = PhaseProfiler::new();
    let mut decide = crate::DecideTimes::default();
    let (mut bare_ns, mut prof_ns, mut events, mut restarts, mut ops, mut op_ns) =
        (0.0, 0.0, 0, 0, 0, 0.0);
    let mut jobs = 0;
    let mut engine_allocs = 0;
    let mut tenant_jobs = Vec::new();
    for t in 0..served.insts.len() {
        let lines = served.lane_text(t);
        let (r, a) = alloc::counted(|| {
            tracer.span("engine.replay", |_| {
                replay(&served.insts[t], served.policy, &lines, None, None)
            })
        });
        engine_allocs += a;
        bare_ns += r.ns;
        events += r.events;
        restarts += r.restarts;
        ops += r.platform_ops;
        op_ns += r.platform_ns;
        jobs += r.jobs.len();
        tenant_jobs.push(r.jobs);
        let p = tracer.span("engine.replay_profiled", |_| {
            replay(
                &served.insts[t],
                served.policy,
                &lines,
                Some(&mut prof),
                Some(&mut decide),
            )
        });
        prof_ns += p.ns;
    }
    report.metric("lane.engine_ns_per_line", "ns", bare_ns / ll);
    report.metric(
        "lane.decide_s",
        "s",
        prof.phase(mmsec_platform::obs::EnginePhase::Decide).sum(),
    );
    report.metric("lane.platform_ops", "count", ops as f64);
    report.metric("lane.platform_apply_ns", "ns", op_ns / ops.max(1) as f64);

    // server: the in-memory sharded fabric at full speed.
    let cfg = ServerConfig {
        serve: ServeConfig {
            policy: served.policy,
            ..ServeConfig::default()
        },
        shards: crate::shards(),
        heartbeat_ms: 0,
        ..ServerConfig::default()
    };
    let input: String = script.lines.concat();
    let t0 = Instant::now();
    let summary = tracer.span("server.run_sharded", |_| {
        run_sharded(&default_instance(), &cfg, input.as_bytes(), std::io::sink())
            .expect("in-memory sharded run succeeds")
    });
    report.metric(
        "server.ns_per_line",
        "ns",
        t0.elapsed().as_nanos() as f64 / n,
    );
    report.metric("server.admitted", "count", summary.admitted as f64);
    report.metric("server.shed", "count", summary.shed as f64);
    report.metric("server.rejected", "count", summary.rejected as f64);

    if engine {
        report.metric("engine.allocs", "count", engine_allocs as f64);
        crate::engine_metrics(report, &prof, &mut decide.0, events, restarts, jobs);
        report.metric("trace.overhead", "ratio", prof_ns / bare_ns - 1.0);
        report.metric("workload.gen_s", "s", tracer.total_s("workload.script"));
        // validate: each tenant's admitted jobs scheduled as one batch
        // instance on its lane platform (mutations left out).
        for (t, jobs) in tenant_jobs.into_iter().enumerate() {
            let inst = Instance::new(served.insts[t].spec.clone(), jobs)
                .expect("admitted jobs form a valid instance");
            let mut policy = served.policy.build(0);
            let out = Simulation::of(&inst)
                .policy(policy.as_mut())
                .run()
                .expect("replayed jobs schedule");
            if let Err(v) = tracer.span("validate", |_| validate(&inst, &out.schedule)) {
                report.violation(format!("tenant {t}: schedule invalid: {:?}", v[0]));
            }
        }
        report.metric("validate.s", "s", tracer.total_s("validate"));
    }
}

/// The batch workload's traced serving slice: served over a fresh SRPT
/// server's socket at a modest rate, then measured layer by layer.
pub fn batch_layers(served: &Served, report: &mut Report, tracer: &mut Tracer, env: &Env) {
    let mut scratch = Report::default();
    let server = start_server(env, served.policy, &mut Calibrator::new(), &mut scratch);
    let rate = 8_000.0;
    let out = tracer.span("load.nominal", |_| send(&server, served, rate));
    check_outcome(served, &out, report, "batch slice");
    check_stretch(served, &out, report);
    drop(server);
    layers(served, &out, report, tracer, false);
}
