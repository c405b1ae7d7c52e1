//! `batch-srpt`: random-CCR instances (20 edges / 20 clouds, n = 50 000)
//! scheduled by SRPT through `Simulation::run`, the ROADMAP's 50k grid
//! point. `core` (`placing.rs`) and the engine do all the work here.

use crate::calib::Calibrator;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{alloc, mix_seed, peak_rss_mb, serve, stats, DecideTimes};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::PhaseProfiler;
use mmsec_platform::{max_stretch, validate, Instance, RunOutcome, Simulation};
use mmsec_workload::RandomCcrConfig;
use std::hint::black_box;
use std::time::Instant;

/// Jobs per instance.
pub const JOBS: usize = 50_000;
/// Instances per run: the reported `max_stretch` is their median, which
/// keeps it steady across seeds while each value still repeats exactly.
const INSTANCES: usize = 5;
/// Decides per block for the latency quantiles (p99 keeps 20 beyond).
const DECIDE_BLOCK: usize = 2_000;

/// Median `max_stretch` (as bits) of known seeds: a change that schedules
/// differently fails the run on these seeds even when it is faster.
const PINNED: &[(u64, u64)] = &[
    (0, 0x401b32cd19b7cf96),  // 6.7996105211676845
    (1, 0x401e1e03ee24ac13),  // 7.529311867702762
    (2, 0x401e810ca2b35396),  // 7.6260247632934774
    (3, 0x401eb999eccb64bd),  // 7.681251239694743
    (4, 0x401b2f712a0c2952),  // 6.796330124847673
    (5, 0x401b42b2d85efdda),  // 6.815135365293338
    (6, 0x401aa1c502e802b5),  // 6.657978101168443
    (7, 0x401d2a31adaa66e5),  // 7.2912051329856
    (8, 0x401ce5b2fa75446c),  // 7.224315560729433
    (9, 0x4019c3c31c492594),  // 6.441173974957014
    (10, 0x401e3c7f17d130e9), // 7.559078571455964
    (11, 0x401c5adb9aaae733), // 7.088728348427867
    (12, 0x401ae6e7830d1f29), // 6.72549252288426
    (13, 0x401bef12f8ca82a6), // 6.983470809326411
    (14, 0x401cd71b71e69439), // 7.210065631578851
    (15, 0x401c31b638b91dc0), // 7.048546682642552
    (16, 0x401e74d07c0815cf), // 7.614076555245858
    (17, 0x4019f24cbf9419ec), // 6.486620896734603
    (18, 0x401dfd5663f088ba), // 7.497399865680729
    (19, 0x401d0a1ffd995e4f), // 7.259887659536232
    (20, 0x401ca2b42c7a17ef), // 7.1588904332656815
];

fn config() -> RandomCcrConfig {
    RandomCcrConfig {
        n: JOBS,
        ..RandomCcrConfig::default()
    }
}

fn simulate(inst: &Instance) -> RunOutcome {
    let mut policy = PolicyKind::Srpt.build(1);
    Simulation::of(inst)
        .policy(policy.as_mut())
        .run()
        .expect("SRPT schedules every random-CCR instance")
}

/// Generations per instance; the median calibrated timing is `setup_s`.
const GENERATIONS: usize = 5;

/// Generates the run's instances: `INSTANCES` seeds derived from `seed`,
/// each generated `GENERATIONS` times (each regeneration must repeat
/// exactly). Returns the instances and each generation's calibrated time.
fn generate(seed: u64, tracer: &mut Tracer, cal: &mut Calibrator) -> (Vec<Instance>, Vec<f64>) {
    let cfg = config();
    let mut insts = Vec::new();
    let mut times = Vec::new();
    for k in 0..GENERATIONS * INSTANCES {
        let s = mix_seed(seed, (k % INSTANCES) as u64);
        let f = cal.factor();
        let t = Instant::now();
        let inst = tracer.span("workload.generate", |_| cfg.generate(s));
        times.push(t.elapsed().as_secs_f64() * f);
        if k < INSTANCES {
            insts.push(inst);
        } else {
            assert_eq!(inst.jobs, insts[k % INSTANCES].jobs, "generation repeats");
        }
    }
    (insts, times)
}

/// The correctness checks of one instance's schedule: valid, every job
/// complete, and its max-stretch as recomputed from the schedule.
fn check(inst: &Instance, out: &RunOutcome, report: &mut Report, tracer: &mut Tracer) -> f64 {
    let valid = tracer.span("validate", |_| validate(inst, &out.schedule));
    if let Err(v) = valid {
        report.violation(format!(
            "schedule invalid: {} violation(s), first {:?}",
            v.len(),
            v[0]
        ));
        report.fail(v.len() as u64);
    }
    let missing = out
        .schedule
        .completion
        .iter()
        .filter(|c| c.is_none())
        .count();
    if missing > 0 {
        report.violation(format!("{missing} job(s) never completed"));
    }
    report.fail(missing as u64);
    max_stretch(inst, &out.schedule)
}

pub fn run(seed: u64, seconds: f64, traced: bool, env: &crate::Env) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(format!("batch-srpt-{seed}"));
    let mut cal = Calibrator::new();
    let (insts, gen_times) = generate(seed, &mut tracer, &mut cal);
    eprintln!("batch-srpt: generation times {gen_times:.4?} s");
    report.metric("setup_s", "s", stats::median(&gen_times));

    // Warm-up run per instance, outside the timed region: it fills
    // caches and yields the reference schedules the timed runs must
    // repeat exactly.
    let mut stretch = Vec::new();
    for inst in &insts {
        let out = tracer.span("sim.run", |_| simulate(inst));
        stretch.push(check(inst, &out, &mut report, &mut tracer));
    }
    let ms = stats::median(&stretch);
    if let Some((_, bits)) = PINNED.iter().find(|p| p.0 == seed) {
        if ms.to_bits() != *bits {
            report.violation(format!(
                "max_stretch {ms} differs from the pinned {} for seed {seed}",
                f64::from_bits(*bits)
            ));
            report.fail(1);
        }
    }
    eprintln!("batch-srpt: seed {seed} max-stretch per instance {stretch:?}");

    if traced {
        layers(&insts[0], &mut report, &mut tracer, env);
    } else {
        // Timed runs cycle through the instances until the budget is
        // spent, alternating bare runs (throughput) with runs observed for
        // per-decision latency, so both sample the same stretch of time.
        // Every run must reproduce its instance's max-stretch.
        let mut jobs_per_s = Vec::new();
        let mut raw_jobs_per_s = Vec::new();
        let mut factors = Vec::new();
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let mut k = 0;
        while t0.elapsed().as_secs_f64() < seconds || k < 2 * INSTANCES {
            let inst = &insts[(k / 2) % INSTANCES];
            let f = cal.factor();
            factors.push(f);
            let out = if k % 2 == 0 {
                let t = Instant::now();
                let out = simulate(black_box(inst));
                let dt = t.elapsed().as_secs_f64();
                raw_jobs_per_s.push(JOBS as f64 / dt);
                jobs_per_s.push(JOBS as f64 / (dt * f));
                out
            } else {
                let mut times = DecideTimes::default();
                let mut policy = PolicyKind::Srpt.build(1);
                let out = Simulation::of(inst)
                    .policy(policy.as_mut())
                    .observer(&mut times)
                    .run()
                    .expect("SRPT schedules every random-CCR instance");
                // Quantiles per block of consecutive decides; the figure is
                // the median over all blocks, so a stall of the host moves
                // a few blocks, not the figure.
                for block in times.0.chunks_exact(DECIDE_BLOCK) {
                    let mut b: Vec<f64> = block.iter().map(|s| s * 1e3 * f).collect();
                    b.sort_by(f64::total_cmp);
                    p50.push(stats::quantile(&b, 0.5));
                    p99.push(stats::quantile(&b, 0.99));
                }
                out
            };
            let again = max_stretch(inst, &out.schedule);
            if again.to_bits() != stretch[(k / 2) % INSTANCES].to_bits() {
                report.violation(format!("run {k}: max-stretch {again} does not repeat"));
                report.fail(1);
            }
            k += 1;
        }
        report.attempt((k * JOBS) as u64);
        eprintln!(
            "{}; {}; {}",
            stats::describe("sim jobs/s", "", &mut jobs_per_s.clone()),
            stats::describe("raw jobs/s", "", &mut raw_jobs_per_s),
            stats::describe("factor", "", &mut factors)
        );
        eprintln!(
            "{}; {}",
            stats::describe("decide p50 per block", "ms", &mut p50.clone()),
            stats::describe("decide p99 per block", "ms", &mut p99.clone())
        );
        report.metric("jobs_per_s", "jobs/s", stats::median(&jobs_per_s));
        report.metric("latency_p50_ms", "ms", stats::median(&p50));
        report.metric("latency_p99_ms", "ms", stats::median(&p99));
        report.metric("max_stretch", "ratio", ms);
        report.metric("ok_share", "ratio", report.ok_share());
        report.metric("peak_rss_mb", "MiB", peak_rss_mb(None));
    }
    if traced {
        env.write_trace(&tracer);
    }
    report
}

/// The traced run's per-layer figures: a profiled run against bare runs
/// (the difference is the tracing overhead), allocation counts, and the
/// first 4 000 jobs served through the socket and in-memory lanes so the
/// serving layers report what they cost on this instance.
fn layers(inst: &Instance, report: &mut Report, tracer: &mut Tracer, env: &crate::Env) {
    let mut bare = Vec::new();
    let mut profiled = Vec::new();
    let mut prof = PhaseProfiler::new();
    let mut decide = DecideTimes::default();
    let mut restarts = 0;
    let mut events = 0;
    for rep in 0..3 {
        let t = Instant::now();
        let (out, allocs) = alloc::counted(|| tracer.span("sim.run", |_| simulate(inst)));
        bare.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            report.metric("engine.allocs", "count", allocs as f64);
            restarts = out.stats.restarts;
            events = out.stats.events;
        }
        let mut p = PhaseProfiler::new();
        let mut d = DecideTimes::default();
        let t = Instant::now();
        tracer.span("sim.run_profiled", |_| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(inst)
                .policy(policy.as_mut())
                .profiler(&mut p)
                .observer(&mut d)
                .run()
                .expect("SRPT schedules every random-CCR instance")
        });
        profiled.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            prof = p;
            decide = d;
        }
    }
    crate::engine_metrics(report, &prof, &mut decide.0, events, restarts, JOBS);
    report.metric(
        "workload.gen_s",
        "s",
        tracer.total_s("workload.generate") / (GENERATIONS * INSTANCES) as f64,
    );
    report.metric(
        "validate.s",
        "s",
        tracer.total_s("validate") / INSTANCES as f64,
    );
    report.metric(
        "trace.overhead",
        "ratio",
        stats::median(&profiled) / stats::median(&bare) - 1.0,
    );
    let slice = serve::batch_slice(inst, 4_000);
    serve::batch_layers(&slice, report, tracer, env);
}
