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

use mmsec_core::PolicyKind;
use mmsec_faults::FaultConfig;
use mmsec_platform::{max_stretch, validate, Instance, Simulation};
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
