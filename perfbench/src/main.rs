//! `perfbench` — runs one benchmark workload and prints its result as
//! one JSON line (see README.md).
//!
//! ```text
//! perfbench --workload batch-srpt|serve-steady|serve-churn --seed N
//!           --seconds S --trace 0|1 [--mmsec PATH]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, derived from spans the benchmark
//! records around its calls into each layer. The process exits 1 when a
//! correctness check fails (after printing the result) and 2 on bad
//! usage or when the program under test cannot be run.

mod alloc;
mod batch;
mod calib;
mod load;
mod report;
mod serve;
mod server;
mod stats;
mod trace;

use mmsec_platform::obs::{EnginePhase, Event, PhaseProfiler};
use mmsec_platform::Observer;
use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_stretch", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.decide_s", "s"),
    ("core.decide_p50_us", "us"),
    ("core.decide_p99_us", "us"),
    ("core.decide_share", "ratio"),
    ("core.skip_ratio", "ratio"),
    ("engine.steps", "count"),
    ("engine.decides", "count"),
    ("engine.decide_skips", "count"),
    ("engine.sanitize_s", "s"),
    ("engine.grant_s", "s"),
    ("engine.commit_s", "s"),
    ("engine.loop_s", "s"),
    ("engine.coverage", "ratio"),
    ("engine.restarts", "count"),
    ("engine.restarts_per_job", "ratio"),
    ("engine.allocs", "count"),
    ("sim.events", "count"),
    ("sim.event_pop_s", "s"),
    ("workload.gen_s", "s"),
    ("validate.s", "s"),
    ("ndjson.parse_ns_per_line", "ns"),
    ("ndjson.write_ns_per_record", "ns"),
    ("ndjson.bytes_in", "bytes"),
    ("ndjson.bytes_out", "bytes"),
    ("lane.ns_per_line", "ns"),
    ("lane.engine_ns_per_line", "ns"),
    ("lane.decide_s", "s"),
    ("lane.records_per_line", "ratio"),
    ("lane.allocs_per_line", "allocs/line"),
    ("lane.platform_ops", "count"),
    ("lane.platform_apply_ns", "ns"),
    ("server.ns_per_line", "ns"),
    ("server.admitted", "count"),
    ("server.shed", "count"),
    ("server.rejected", "count"),
    ("load.late_p50_ms", "ms"),
    ("load.late_p99_ms", "ms"),
    ("load.backlog_max", "lines"),
    ("load.sent", "count"),
    ("load.acked", "count"),
    ("trace.overhead", "ratio"),
];

/// Where the run finds the program under test and keeps its files.
pub struct Env {
    pub mmsec: PathBuf,
    /// Scratch directory of this run (socket, platform file).
    pub dir: PathBuf,
    pub shards: usize,
}

impl Env {
    /// Writes the run's spans when a traced run ends.
    pub fn write_trace(&self, tracer: &trace::Tracer) {
        let dir = PathBuf::from(".bench_build/perfbench-traces");
        let path = dir.join(format!("{}.json", tracer.id()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        eprintln!("self time by span:");
        for (name, s) in tracer.self_times() {
            eprintln!("  {name:<24} {s:>10.6} s");
        }
    }
}

/// Shard workers for the server: at most two, and no more than cores.
pub fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Collects the wall time of every invoked `decide`, in seconds.
#[derive(Default)]
pub struct DecideTimes(pub Vec<f64>);

impl Observer for DecideTimes {
    fn on_event(&mut self, event: &Event) {
        if let Event::DecideEnd { wall, .. } = event {
            self.0.push(wall.as_secs_f64());
        }
    }
}

/// The engine and core figures of a profiled run.
pub fn engine_metrics(
    report: &mut report::Report,
    prof: &PhaseProfiler,
    decide: &mut [f64],
    events: u64,
    restarts: u64,
    jobs: usize,
) {
    decide.sort_by(f64::total_cmp);
    let sum = |ph| prof.phase(ph).sum();
    let wall = prof.loop_wall().as_secs_f64();
    report.metric("core.decide_s", "s", sum(EnginePhase::Decide));
    report.metric(
        "core.decide_p50_us",
        "us",
        stats::quantile(decide, 0.5) * 1e6,
    );
    report.metric(
        "core.decide_p99_us",
        "us",
        stats::quantile(decide, 0.99) * 1e6,
    );
    report.metric(
        "core.decide_share",
        "ratio",
        sum(EnginePhase::Decide) / wall,
    );
    report.metric("core.skip_ratio", "ratio", prof.skip_ratio());
    report.metric("engine.steps", "count", prof.steps() as f64);
    report.metric("engine.decides", "count", prof.decides() as f64);
    report.metric("engine.decide_skips", "count", prof.decide_skips() as f64);
    report.metric("engine.sanitize_s", "s", sum(EnginePhase::Sanitize));
    report.metric("engine.grant_s", "s", sum(EnginePhase::Grant));
    report.metric("engine.commit_s", "s", sum(EnginePhase::Commit));
    report.metric("engine.loop_s", "s", wall);
    report.metric("engine.coverage", "ratio", prof.coverage());
    report.metric("engine.restarts", "count", restarts as f64);
    report.metric(
        "engine.restarts_per_job",
        "ratio",
        restarts as f64 / jobs.max(1) as f64,
    );
    report.metric("sim.events", "count", events as f64);
    report.metric("sim.event_pop_s", "s", sum(EnginePhase::EventPop));
    eprintln!(
        "engine: {} steps, {} decides, {} skipped, loop {wall:.4} s, coverage {:.3}; {}",
        prof.steps(),
        prof.decides(),
        prof.decide_skips(),
        prof.coverage(),
        stats::describe(
            "decide",
            "us",
            &mut decide.iter().map(|s| s * 1e6).collect::<Vec<_>>()
        )
    );
}

/// A SplitMix64 stream.
pub fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `k`-th seed derived from the run's seed.
pub fn mix_seed(seed: u64, k: u64) -> u64 {
    splitmix(seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03))()
}

/// Peak resident memory in MiB of process `pid` (this one when `None`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU jiffies since boot, from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Stops the run without a result.
pub fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mmsec: PathBuf,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let usage = "usage: perfbench --workload batch-srpt|serve-steady|serve-churn --seed N \
                 --seconds S --trace 0|1 [--mmsec PATH]";
    let parse = |v: Option<String>, what: &str| -> String {
        v.unwrap_or_else(|| die(&format!("missing {what}\n{usage}")))
    };
    let workload = parse(get("--workload"), "--workload");
    let seed = parse(get("--seed"), "--seed")
        .parse()
        .unwrap_or_else(|_| die("--seed must be a whole number"));
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "25".into())
        .parse()
        .unwrap_or_else(|_| die("--seconds must be a number"));
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => die(&format!("--trace must be 0 or 1, got {other}")),
    };
    let mmsec = get("--mmsec").map(PathBuf::from).unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        PathBuf::from(target).join("release").join("mmsec")
    });
    Args {
        workload,
        seed,
        seconds: seconds.max(1.0),
        trace,
        mmsec,
    }
}

fn main() {
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(stats::valid_name(name), "metric name {name:?} is invalid");
    }
    let args = parse_args();
    if !args.mmsec.exists() {
        die(&format!(
            "program under test not found at {}",
            args.mmsec.display()
        ));
    }
    let dir = PathBuf::from(format!(".bench_build/perfbench-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    let env = Env {
        mmsec: args.mmsec,
        dir,
        shards: shards(),
    };
    let steal0 = cpu_steal();
    let (s, secs, t) = (args.seed, args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "batch-srpt" => batch::run(s, secs, t, &env),
        "serve-steady" => serve::run(serve::Mix::Steady, "serve-steady", s, secs, t, &env),
        "serve-churn" => serve::run(serve::Mix::Churn, "serve-churn", s, secs, t, &env),
        other => die(&format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&env.dir);
    // A host that takes CPU away mid-run moves every timing: say so.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, cpu_steal()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!("cpu steal during the run: {:.1}%", share * 100.0);
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match report.to_json(names) {
        Ok(json) => println!("{json}"),
        Err(e) => die(&e),
    }
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn derived_seeds_differ_and_repeat() {
        assert_eq!(mix_seed(7, 1), mix_seed(7, 1));
        assert_ne!(mix_seed(7, 1), mix_seed(7, 2));
        assert_ne!(mix_seed(7, 1), mix_seed(8, 1));
    }
}
