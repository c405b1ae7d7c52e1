//! The resumable `Session` is an exact generalization of the batch
//! engine: feeding a workload one job at a time, pausing at every
//! release instant, must produce a bit-identical schedule to the batch
//! `Simulation::run` over the same instance, for every registry policy,
//! with and without fault plans. Pausing at *other* instants inserts
//! extra decision points, which the engine does not promise keep the
//! schedule bit-identical — those runs must still be §III-B-valid and
//! complete every job (second property below).
//!
//! Event *counts* are deliberately not compared: a paused session may
//! burn extra decision events at instants where the batch loop has none
//! (externally-imposed pauses) — the schedule and restart counts are the
//! observable contract.
//!
//! Retiring finished jobs at idle points is invisible: a session that
//! calls `retire_finished` before every submission reports exactly the
//! completions and counters of one that never does (third property).

use mmsec_core::PolicyKind;
use mmsec_faults::FaultConfig;
use mmsec_platform::obs::Event;
use mmsec_platform::{
    max_stretch, validate, CloudId, EdgeId, Instance, Job, Observer, PlatformMutation,
    PlatformSpec, Session, Simulation,
};
use mmsec_sim::Time;
use mmsec_workload::{KangConfig, RandomCcrConfig};
use proptest::prelude::*;

/// Workload family × size × generator seed (the gating-equivalence
/// sizes, kept small for the registry × fault matrix).
fn arb_instance() -> impl Strategy<Value = Instance> {
    let kang = (2usize..30, 0u64..1000).prop_map(|(n, seed)| {
        KangConfig {
            num_edge: 4,
            num_cloud: 3,
            n,
            ..KangConfig::default()
        }
        .generate(seed)
    });
    let ccr = (2usize..30, 0u64..1000, 1usize..4).prop_map(|(n, seed, num_cloud)| {
        RandomCcrConfig {
            n,
            num_cloud,
            slow_edges: 2,
            fast_edges: 2,
            ..RandomCcrConfig::default()
        }
        .generate(seed)
    });
    prop_oneof![kang, ccr]
}

/// `None` = fault-free; `Some((mtbf, mttr, seed))` = a uniform
/// exponential crash/recover model compiled against the instance.
fn arb_faults() -> impl Strategy<Value = Option<(f64, f64, u64)>> {
    prop_oneof![
        2 => Just(None),
        3 => (20.0f64..200.0, 1.0f64..10.0, 0u64..1000).prop_map(Some),
    ]
}

/// Reorders `inst`'s jobs by (release, original index) so that streaming
/// submission order matches job-id order. Both runs use the reordered
/// instance, so the comparison is still apples to apples.
fn release_sorted(inst: &Instance) -> Instance {
    let mut jobs = inst.jobs.clone();
    jobs.sort_by(|a, b| a.release.partial_cmp(&b.release).expect("finite releases"));
    Instance::new(inst.spec.clone(), jobs).expect("reordering preserves validity")
}

fn assert_session_equals_batch(
    inst: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    faults: Option<(f64, f64, u64)>,
) -> Result<(), TestCaseError> {
    let inst = release_sorted(inst);
    let plan = faults.map(|(mtbf, mttr, fault_seed)| {
        FaultConfig::uniform_exponential(inst.spec.num_edge(), inst.spec.num_cloud(), mtbf, mttr)
            .compile(fault_seed, Time::new(1e5))
    });

    // Batch: everything known up front.
    let mut batch_policy = kind.build(policy_seed);
    let mut sim = Simulation::of(&inst).policy(batch_policy.as_mut());
    if let Some(plan) = &plan {
        sim = sim.faults(plan);
    }
    let batch = sim.run();

    // Session: an empty platform fed one job per release.
    let empty = Instance::new(inst.spec.clone(), Vec::new()).expect("empty instance");
    let mut stream_policy = kind.build(policy_seed);
    let mut sim = Simulation::of(&empty).policy(stream_policy.as_mut());
    if let Some(plan) = &plan {
        sim = sim.faults(plan);
    }
    let mut session = sim.session();
    for job in &inst.jobs {
        if job.release > session.now() {
            let _ = session.run_until(job.release).expect("session advance");
        }
        session.submit(*job).expect("valid job");
    }
    let streamed = session.drain();
    match (batch, streamed) {
        (Ok(batch), Ok(())) => {
            let out = session.into_outcome();
            prop_assert_eq!(&out.schedule, &batch.schedule, "{} schedule differs", kind);
            prop_assert_eq!(
                out.stats.restarts,
                batch.stats.restarts,
                "{} restarts",
                kind
            );
        }
        // Both paths must fail identically (e.g. stalled on a dead unit).
        (batch, streamed) => {
            prop_assert_eq!(
                batch.map(|_| ()).err(),
                streamed.err(),
                "{} failure mode differs",
                kind
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: stream-fed session ≡ batch simulate, for
    /// the whole policy registry, with and without fault plans.
    #[test]
    fn session_fed_per_release_equals_batch(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
        faults in arb_faults(),
    ) {
        for kind in PolicyKind::ALL {
            assert_session_equals_batch(&inst, kind, policy_seed, faults)?;
        }
    }

    /// Pausing at arbitrary instants between releases inserts extra
    /// decision points, which the engine does *not* promise keep the
    /// schedule bit-identical (see the session module docs) — but the
    /// result must still be a valid schedule that completes every job,
    /// and its max stretch must stay finite and at least 1, up to the
    /// rounding every stretch check allows (a job that ran alone can
    /// still divide out to 1 − 2⁻⁵²).
    #[test]
    fn paused_sessions_still_produce_valid_schedules(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
    ) {
        let inst = release_sorted(&inst);
        for kind in PolicyKind::ALL {
            let empty = Instance::new(inst.spec.clone(), Vec::new()).expect("empty instance");
            let mut policy = kind.build(policy_seed);
            let mut session = Simulation::of(&empty).policy(policy.as_mut()).session();
            let mut prev = Time::ZERO;
            for job in &inst.jobs {
                if job.release > prev {
                    let mid = Time::new((prev.seconds() + job.release.seconds()) / 2.0);
                    let _ = session.run_until(mid).expect("session advance");
                }
                if job.release > session.now() {
                    let _ = session.run_until(job.release).expect("session advance");
                }
                session.submit(*job).expect("valid job");
                prev = job.release;
            }
            session.drain().expect("paused session drains");
            let out = session.into_outcome();
            prop_assert!(
                validate(&inst, &out.schedule).is_ok(),
                "{} paused schedule invalid", kind
            );
            let stretch = max_stretch(&inst, &out.schedule);
            prop_assert!(
                stretch.is_finite() && stretch >= 1.0 - 1e-9,
                "{} stretch {}", kind, stretch
            );
        }
    }
}

/// One line of a served stream: a job arriving `gap` seconds after the
/// previous line (declared `late` seconds before its arrival), or a
/// platform mutation at the arrival instant.
#[derive(Clone, Debug)]
enum Line {
    Job {
        gap: f64,
        late: f64,
        origin: usize,
        work: f64,
        up: f64,
        dn: f64,
    },
    Platform {
        gap: f64,
        op: u8,
        unit: usize,
        value: f64,
    },
}

/// Streams mixing busy bursts with idle gaps long enough for every job
/// to finish, late submissions, and platform mutations.
fn arb_stream() -> impl Strategy<Value = Vec<Line>> {
    let gap = || prop_oneof![3 => 0.0f64..2.0, 1 => 40.0f64..120.0];
    let late = prop_oneof![3 => Just(0.0f64), 1 => 0.5f64..6.0];
    let comm = || prop_oneof![Just(0.0f64), 0.05f64..2.0];
    let job = (gap(), late, 0usize..3, 0.1f64..5.0, comm(), comm()).prop_map(
        |(gap, late, origin, work, up, dn)| Line::Job {
            gap,
            late,
            origin,
            work,
            up,
            dn,
        },
    );
    let platform =
        (gap(), 0u8..5, 0usize..4, 0.5f64..2.0).prop_map(|(gap, op, unit, value)| Line::Platform {
            gap,
            op,
            unit,
            value,
        });
    proptest::collection::vec(prop_oneof![6 => job, 1 => platform], 1..48)
}

/// The mutation a platform line asks for. A cloud is only removed while
/// another one is live, so Cloud-Only always has somewhere to run.
fn mutation(session: &Session<'_>, op: u8, unit: usize, value: f64) -> Option<PlatformMutation> {
    let platform = session.platform();
    let clouds = platform.spec().num_cloud();
    Some(match op {
        0 => PlatformMutation::AddCloud { speed: value },
        1 => PlatformMutation::SetCloudSpeed {
            cloud: CloudId(unit % clouds),
            speed: value,
        },
        2 => PlatformMutation::SetLink {
            edge: EdgeId(unit % 3),
            factor: value,
        },
        3 => PlatformMutation::SetEdgeSpeed {
            edge: EdgeId(unit % 3),
            speed: value,
        },
        _ if platform.num_clouds_live() >= 2 => PlatformMutation::RemoveCloud {
            cloud: CloudId(unit % clouds),
        },
        _ => return None,
    })
}

/// A `Completed` event's fields, with floats as bits.
type CompletionBits = (usize, Option<usize>, u64, u64, u64, u64);

/// Everything a served lane reads off a session's `Completed` events,
/// with floats as bits, in emission order.
struct Completions(Vec<CompletionBits>);

impl Observer for Completions {
    fn on_event(&mut self, event: &Event) {
        if let Event::Completed {
            t,
            job,
            release,
            cloud,
            response,
            stretch,
        } = *event
        {
            self.0.push((
                job,
                cloud,
                release.seconds().to_bits(),
                t.seconds().to_bits(),
                response.to_bits(),
                stretch.to_bits(),
            ));
        }
    }
}

/// What a session fed a stream reported.
struct Served {
    /// Every `Completed` event, in order.
    completions: Vec<CompletionBits>,
    /// The outcome of every advance, submission, mutation and the drain.
    steps: Vec<String>,
    /// The final snapshot's counters, floats as bits.
    counters: Vec<u64>,
    /// The most jobs the session held at once.
    most_held: usize,
}

/// Feeds `stream` to a session of `kind` on `spec`, calling
/// `retire_finished` before every submission when `retire` is set.
fn serve_stream(
    spec: &PlatformSpec,
    kind: PolicyKind,
    policy_seed: u64,
    stream: &[Line],
    retire: bool,
) -> Served {
    let empty = Instance::new(spec.clone(), Vec::new()).expect("empty instance");
    let mut completions = Completions(Vec::new());
    let mut session = Simulation::of(&empty)
        .policy_boxed(kind.build(policy_seed))
        .observer(&mut completions)
        .session();
    let mut steps = Vec::new();
    let mut most_held = 0;
    let mut arrival = 0.0;
    for line in stream {
        let gap = match *line {
            Line::Job { gap, .. } | Line::Platform { gap, .. } => gap,
        };
        arrival += gap;
        if Time::new(arrival) > session.now() {
            steps.push(format!("{:?}", session.run_until(Time::new(arrival))));
        }
        match *line {
            Line::Job {
                late,
                origin,
                work,
                up,
                dn,
                ..
            } => {
                let job = Job::new(EdgeId(origin), (arrival - late).max(0.0), work, up, dn);
                if retire {
                    session.retire_finished();
                }
                steps.push(format!("{:?}", session.submit(job)));
                most_held = most_held.max(session.instance().num_jobs());
            }
            Line::Platform {
                op, unit, value, ..
            } => {
                if let Some(m) = mutation(&session, op, unit, value) {
                    steps.push(format!("{:?}", session.apply_platform(m)));
                }
            }
        }
    }
    steps.push(format!("{:?}", session.drain()));
    let s = session.snapshot();
    let counters = vec![
        s.now.seconds().to_bits(),
        s.submitted as u64,
        s.completed as u64,
        s.unfinished as u64,
        s.pending as u64,
        s.running as u64,
        s.max_stretch.to_bits(),
        s.mean_stretch.to_bits(),
        s.run.events,
        s.run.decides,
        s.run.decide_skips,
        s.run.restarts,
        session.platform().version(),
    ];
    drop(session);
    Served {
        completions: completions.0,
        steps,
        counters,
        most_held,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A session that retires its finished jobs before every submission
    /// is indistinguishable from one that keeps them: the same
    /// completions (ids, clouds, instants and stretches bit for bit), the
    /// same outcome of every step, and the same final counters,
    /// for the whole policy registry.
    #[test]
    fn retiring_finished_jobs_is_invisible(
        stream in arb_stream(),
        cloud_speeds in proptest::collection::vec(prop_oneof![Just(0.5f64), Just(1.0), Just(2.0)], 1..4),
        policy_seed in 0u64..1000,
    ) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 1.0, 0.25])
            .clouds(cloud_speeds)
            .build();
        for kind in PolicyKind::ALL {
            let kept = serve_stream(&spec, kind, policy_seed, &stream, false);
            let retired = serve_stream(&spec, kind, policy_seed, &stream, true);
            prop_assert_eq!(&retired.steps, &kept.steps, "{} step outcomes differ", kind);
            prop_assert_eq!(&retired.completions, &kept.completions, "{} completions differ", kind);
            prop_assert_eq!(&retired.counters, &kept.counters, "{} counters differ", kind);
        }
    }
}

/// A long stream with idle gaps: the retiring session really does drop
/// its jobs (it never holds more than one busy period's worth) and still
/// matches the session that keeps them all.
#[test]
fn long_idle_stream_retires_and_matches() {
    let mut x = 7u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let stream: Vec<Line> = (0..300)
        .map(|i| {
            let gap = if i % 7 == 6 { 60.0 } else { 2.0 * next() };
            if i % 50 == 25 {
                Line::Platform {
                    gap,
                    op: (i / 50 % 4) as u8,
                    unit: i,
                    value: 0.75 + next(),
                }
            } else {
                Line::Job {
                    gap,
                    late: if i % 5 == 0 { 2.0 * next() } else { 0.0 },
                    origin: i % 3,
                    work: 0.1 + 3.0 * next(),
                    up: next(),
                    dn: 0.5 * next(),
                }
            }
        })
        .collect();
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 1.0, 0.25])
        .clouds([1.0, 2.0])
        .build();
    for kind in PolicyKind::ALL {
        let kept = serve_stream(&spec, kind, 3, &stream, false);
        let retired = serve_stream(&spec, kind, 3, &stream, true);
        assert_eq!(retired.steps, kept.steps, "{kind} step outcomes differ");
        assert_eq!(
            retired.completions, kept.completions,
            "{kind} completions differ"
        );
        assert_eq!(retired.counters, kept.counters, "{kind} counters differ");
        assert_eq!(
            kept.most_held, 294,
            "{kind}: the kept session holds every job"
        );
        assert!(
            retired.most_held < 50,
            "{kind} held {} jobs at once",
            retired.most_held
        );
    }
}

/// Deterministic spot-check at a size the proptest strategy never
/// reaches.
#[test]
fn large_streamed_run_matches_batch() {
    let inst = release_sorted(
        &RandomCcrConfig {
            n: 120,
            num_cloud: 3,
            slow_edges: 2,
            fast_edges: 2,
            ..RandomCcrConfig::default()
        }
        .generate(11),
    );
    for kind in PolicyKind::ALL {
        let mut batch_policy = kind.build(5);
        let batch = Simulation::of(&inst)
            .policy(batch_policy.as_mut())
            .run()
            .unwrap();

        let empty = Instance::new(inst.spec.clone(), Vec::new()).unwrap();
        let mut stream_policy = kind.build(5);
        let mut session = Simulation::of(&empty)
            .policy(stream_policy.as_mut())
            .session();
        for job in &inst.jobs {
            if job.release > session.now() {
                session.run_until(job.release).unwrap();
            }
            session.submit(*job).unwrap();
        }
        session.drain().unwrap();
        let out = session.into_outcome();
        assert_eq!(out.schedule, batch.schedule, "{kind} schedule differs");
        assert_eq!(
            out.stats.restarts, batch.stats.restarts,
            "{kind} restarts differ"
        );
    }
}
