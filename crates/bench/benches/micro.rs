//! Substrate micro-benchmarks: event queue, interval sets, projection,
//! instance generation — the building blocks whose cost bounds the whole
//! simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::{FlightRecorder, NullObserver, PhaseProfiler};
use mmsec_platform::projection::Projection;
use mmsec_platform::{Instance, Simulation, Target};
use mmsec_sim::{EventQueue, Interval, IntervalSet, Time};
use mmsec_workload::{KangConfig, RandomCcrConfig};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("micro/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                // Pseudo-shuffled times.
                let t = ((i * 2654435761) % 10_000) as f64;
                q.push(Time::new(t), 0, i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
}

fn bench_interval_set(c: &mut Criterion) {
    c.bench_function("micro/interval_set_insert_1k_disjoint", |b| {
        b.iter(|| {
            let mut s = IntervalSet::new();
            for i in 0..1000 {
                let start = i as f64 * 2.0;
                s.insert(Interval::from_secs(start, start + 1.0)).unwrap();
            }
            s.total_length()
        });
    });
    c.bench_function("micro/interval_set_insert_1k_merging", |b| {
        b.iter(|| {
            let mut s = IntervalSet::new();
            for i in 0..1000 {
                let start = i as f64;
                s.insert(Interval::from_secs(start, start + 1.0)).unwrap();
            }
            s.len()
        });
    });
}

fn bench_projection(c: &mut Criterion) {
    let cfg = RandomCcrConfig {
        n: 200,
        ..RandomCcrConfig::default()
    };
    let inst = cfg.generate(5);
    let spec = &inst.spec;
    c.bench_function("micro/projection_place_200_jobs", |b| {
        b.iter_batched(
            || Projection::new(spec, Time::ZERO),
            |mut proj| {
                for (_, job) in inst.iter_jobs() {
                    // Every job starts fresh. Earliest forecast completion;
                    // ties prefer the edge, then lower cloud ids.
                    let fresh = (job.up, job.work, job.dn);
                    let mut best = (
                        Target::Edge,
                        proj.completion(job, fresh, Target::Edge, spec, Time::ZERO),
                    );
                    for k in spec.clouds() {
                        let t = Target::Cloud(k);
                        let c = proj.completion(job, fresh, t, spec, Time::ZERO);
                        if c < best.1 {
                            best = (t, c);
                        }
                    }
                    proj.place(job, fresh, best.0, spec, Time::ZERO);
                }
                proj
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("micro/generate_random_ccr_1k", |b| {
        let cfg = RandomCcrConfig {
            n: 1000,
            ..RandomCcrConfig::default()
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            cfg.generate(seed)
        });
    });
    c.bench_function("micro/generate_kang_1k", |b| {
        let cfg = KangConfig {
            n: 1000,
            ..KangConfig::default()
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            cfg.generate(seed)
        });
    });
}

/// Observer-dispatch overhead: the same simulation with no observer at
/// all (the default path) versus a [`NullObserver`] (pays the per-event
/// branch + virtual dispatch and nothing else), a [`PhaseProfiler`]
/// (clock reads + histogram inserts per engine step), and a
/// [`FlightRecorder`] (one ring write per event). The null case must be
/// indistinguishable from the bare run — the observability layer's
/// zero-overhead claim — and the other two are budgeted by the
/// `cargo xtask obs-overhead` CI gate.
fn bench_observer_overhead(c: &mut Criterion) {
    let cfg = RandomCcrConfig {
        n: 200,
        ..RandomCcrConfig::default()
    };
    let inst = cfg.generate(5);
    c.bench_function("micro/simulate_200_no_observer", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    c.bench_function("micro/simulate_200_null_observer", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            let mut obs = NullObserver;
            Simulation::of(&inst)
                .policy(policy.as_mut())
                .observer(&mut obs)
                .run()
                .unwrap()
        });
    });
    c.bench_function("micro/simulate_200_profiler", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            let mut prof = PhaseProfiler::new();
            Simulation::of(&inst)
                .policy(policy.as_mut())
                .profiler(&mut prof)
                .run()
                .unwrap()
        });
    });
    c.bench_function("micro/simulate_200_flight", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            let mut flight = FlightRecorder::default();
            Simulation::of(&inst)
                .policy(policy.as_mut())
                .observer(&mut flight)
                .run()
                .unwrap()
        });
    });
}

/// High-n decide-path cost: the incremental pending-set and the reusable
/// directive buffer matter most when each event sees many pending jobs.
fn bench_decide_path_high_n(c: &mut Criterion) {
    let cfg = RandomCcrConfig {
        n: 1000,
        ..RandomCcrConfig::default()
    };
    let inst = cfg.generate(5);
    let mut group = c.benchmark_group("micro/high_n");
    group.sample_size(10);
    group.bench_function("simulate_1000_srpt", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    group.bench_function("simulate_1000_fcfs", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Fcfs.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    // The same workload on a 3-tier continuum: prices the tier-path
    // comm scaling (path factors ≠ 1.0 everywhere) against the frozen
    // flat `simulate_1000_srpt` run above.
    let spec = &inst.spec;
    let mut b = mmsec_platform::PlatformSpec::builder()
        .edges(spec.edges().map(|j| spec.edge_speed(j)))
        .tier(1.0, 1.0)
        .tier(1.5, 2.0)
        .tier(2.0, 3.0);
    for (i, k) in spec.clouds().enumerate() {
        b = b.cloud_at(spec.cloud_speed(k), 1 + i % 3);
    }
    let tiered = Instance::new(b.build(), inst.jobs.clone()).unwrap();
    group.bench_function("simulate_1000_srpt_tiered", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(&tiered)
                .policy(policy.as_mut())
                .run()
                .unwrap()
        });
    });
    // Mid-run unit churn through the session mutation API: a fast edge
    // and a cloud join at ¼ horizon, get retuned at ½, and leave at ¾.
    // Each version bump forces every policy to rebuild its
    // platform-sized caches, so this prices the dynamic-platform path
    // against the frozen `simulate_1000_srpt` run above.
    let horizon = inst
        .iter_jobs()
        .map(|(_, j)| j.release.seconds())
        .fold(0.0_f64, f64::max);
    group.bench_function("simulate_1000_srpt_elastic", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            let mut session = Simulation::of(&inst).policy(policy.as_mut()).session();
            session.run_until(Time::new(0.25 * horizon)).unwrap();
            let e = session.add_edge(0.9).unwrap();
            let k = session.add_cloud(2.0).unwrap();
            session.run_until(Time::new(0.5 * horizon)).unwrap();
            session.set_edge_speed(e, 0.4).unwrap();
            session.set_link(e, 0.5).unwrap();
            session.run_until(Time::new(0.75 * horizon)).unwrap();
            session.remove_edge(e).unwrap();
            session.remove_cloud(k).unwrap();
            session.drain().unwrap();
            session.snapshot().completed
        });
    });
    // n=5000: only viable at all because decision-epoch gating and the
    // incremental policy state cap per-event cost; sized to stay inside
    // the CI smoke budget.
    let cfg = RandomCcrConfig {
        n: 5000,
        ..RandomCcrConfig::default()
    };
    let inst = cfg.generate(5);
    group.bench_function("simulate_5000_srpt", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    group.bench_function("simulate_5000_fcfs", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Fcfs.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    // n=50_000: an order of magnitude past the CI smoke sizes, where a
    // cost growing faster than the job count would show. Sample count is
    // minimal — the point is a wall guarding against superlinear
    // regressions, not a tight mean.
    let cfg = RandomCcrConfig {
        n: 50_000,
        ..RandomCcrConfig::default()
    };
    let inst = cfg.generate(5);
    group.bench_function("simulate_50000_srpt", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Srpt.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    group.bench_function("simulate_50000_fcfs", |b| {
        b.iter(|| {
            let mut policy = PolicyKind::Fcfs.build(1);
            Simulation::of(&inst).policy(policy.as_mut()).run().unwrap()
        });
    });
    group.finish();
}

/// Telemetry overhead at scale: the profiler and flight-recorder
/// variants of the `high_n` SRPT runs, so the per-step clock reads and
/// per-event ring writes are measured where they are most frequent
/// (EXPERIMENTS.md quotes these against their bare counterparts).
fn bench_telemetry_high_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/high_n");
    group.sample_size(10);
    for n in [1000usize, 5000] {
        let cfg = RandomCcrConfig {
            n,
            ..RandomCcrConfig::default()
        };
        let inst = cfg.generate(5);
        group.bench_function(format!("simulate_{n}_srpt_profiler"), |b| {
            b.iter(|| {
                let mut policy = PolicyKind::Srpt.build(1);
                let mut prof = PhaseProfiler::new();
                Simulation::of(&inst)
                    .policy(policy.as_mut())
                    .profiler(&mut prof)
                    .run()
                    .unwrap()
            });
        });
        group.bench_function(format!("simulate_{n}_srpt_flight"), |b| {
            b.iter(|| {
                let mut policy = PolicyKind::Srpt.build(1);
                let mut flight = FlightRecorder::default();
                Simulation::of(&inst)
                    .policy(policy.as_mut())
                    .observer(&mut flight)
                    .run()
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_interval_set,
    bench_projection,
    bench_generators,
    bench_observer_overhead,
    bench_decide_path_high_n,
    bench_telemetry_high_n
);
criterion_main!(benches);
