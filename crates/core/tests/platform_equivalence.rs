//! The versioned platform runtime is an exact generalization of the
//! frozen-`Instance` engine.
//!
//! Two headline properties, each across the whole policy registry and
//! with/without fault plans:
//!
//! 1. **Grown ≡ frozen**: a session that starts from a single-edge
//!    platform and *builds* the target shape through pre-start
//!    [`Session`](mmsec_platform::Session) mutations (`add_edge`,
//!    `add_cloud`) produces a bit-identical schedule to the batch run on
//!    the frozen instance of that shape. Unit ids are assigned in join
//!    order, so growing in spec order reproduces the spec exactly.
//! 2. **Tombstones are inert**: adding units and removing them again
//!    before the run starts leaves the schedule bit-identical to never
//!    having had them — a tombstoned unit is invisible to every policy.
//!
//! Zero mutations need no property of their own: a never-mutated
//! `PlatformState` reports no availability overlay, which is the exact
//! legacy static fast path (covered by the session/gating equivalence
//! suites and the goldens).

use mmsec_core::PolicyKind;
use mmsec_faults::FaultConfig;
use mmsec_platform::{CloudId, EdgeId, Instance, PlatformSpec, Simulation};
use mmsec_sim::Time;
use mmsec_workload::{KangConfig, RandomCcrConfig};
use proptest::prelude::*;

/// Workload family × size × generator seed (the session-equivalence
/// sizes, kept small for the registry × fault matrix).
fn arb_instance() -> impl Strategy<Value = Instance> {
    let kang = (2usize..25, 0u64..1000).prop_map(|(n, seed)| {
        KangConfig {
            num_edge: 4,
            num_cloud: 3,
            n,
            ..KangConfig::default()
        }
        .generate(seed)
    });
    let ccr = (2usize..25, 0u64..1000, 1usize..4).prop_map(|(n, seed, num_cloud)| {
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
/// submission order matches job-id order.
fn release_sorted(inst: &Instance) -> Instance {
    let mut jobs = inst.jobs.clone();
    jobs.sort_by(|a, b| a.release.partial_cmp(&b.release).expect("finite releases"));
    Instance::new(inst.spec.clone(), jobs).expect("reordering preserves validity")
}

fn assert_grown_equals_frozen(
    inst: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    faults: Option<(f64, f64, u64)>,
) -> Result<(), TestCaseError> {
    let inst = release_sorted(inst);
    let spec = &inst.spec;
    let plan = faults.map(|(mtbf, mttr, fault_seed)| {
        FaultConfig::uniform_exponential(spec.num_edge(), spec.num_cloud(), mtbf, mttr)
            .compile(fault_seed, Time::new(1e5))
    });

    // Batch: the frozen instance, everything known up front.
    let mut batch_policy = kind.build(policy_seed);
    let mut sim = Simulation::of(&inst).policy(batch_policy.as_mut());
    if let Some(plan) = &plan {
        sim = sim.faults(plan);
    }
    let batch = sim.run();

    // Grown: start from edge 0 alone, then join the remaining units in
    // spec order before the run starts. Ids are assigned in join order,
    // so the session's platform ends bit-identical to `spec`.
    let seed_spec = PlatformSpec::builder()
        .edges(vec![spec.edge_speed(EdgeId(0))])
        .clouds(Vec::new())
        .build();
    let empty = Instance::new(seed_spec, Vec::new()).expect("single-edge seed");
    let mut stream_policy = kind.build(policy_seed);
    let mut sim = Simulation::of(&empty).policy(stream_policy.as_mut());
    if let Some(plan) = &plan {
        sim = sim.faults(plan);
    }
    let mut session = sim.session();
    for j in spec.edges().skip(1) {
        let id = session.add_edge(spec.edge_speed(j)).expect("join edge");
        prop_assert_eq!(id, j);
    }
    for k in spec.clouds() {
        let id = session.add_cloud(spec.cloud_speed(k)).expect("join cloud");
        prop_assert_eq!(id, k);
    }
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Headline: a platform grown unit-by-unit through the mutation API
    /// schedules bit-identically to the frozen instance of that shape.
    #[test]
    fn grown_platform_equals_frozen_batch(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
        faults in arb_faults(),
    ) {
        for kind in PolicyKind::ALL {
            assert_grown_equals_frozen(&inst, kind, policy_seed, faults)?;
        }
    }

    /// A mid-run platform mutation lands at an arbitrary paused instant —
    /// almost always strictly between two queued events, where no release
    /// or boundary fires — and bumps the decision epoch there. Every policy's
    /// incremental state (gated decides, cached plans, round state keyed
    /// by platform version) must absorb it exactly like its reference
    /// mode, which recomputes from scratch at every event: schedules stay
    /// bit-identical.
    #[test]
    fn midrun_mutation_between_rotations_matches_reference_policy(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
        cut in 0.05f64..0.95,
    ) {
        let inst = release_sorted(&inst);
        let horizon = inst
            .jobs
            .iter()
            .map(|j| j.release.seconds())
            .fold(0.0_f64, f64::max);
        let empty = Instance::new(inst.spec.clone(), Vec::new()).expect("empty instance");
        for kind in PolicyKind::ALL {
            let run = |reference: bool| {
                let mut policy = if reference {
                    kind.build_reference(policy_seed)
                } else {
                    kind.build(policy_seed)
                };
                let mut session = Simulation::of(&empty).policy(policy.as_mut()).session();
                let mut mutated = false;
                for job in &inst.jobs {
                    if !mutated && job.release.seconds() > cut * horizon {
                        // Pause mid-stream (mid-bucket), churn the
                        // platform, and resume: join units, retune a live
                        // link, slow two live units down, and drop a live
                        // cloud (killing its work in flight) as well as
                        // the joined one before any decide can commit to
                        // it. The slowed units make a stale plan's dropped
                        // cloud look better than every live target, so a
                        // policy that keeps its plan across the version
                        // bump parks work there for good.
                        let t = Time::new(cut * horizon);
                        if t > session.now() {
                            let _ = session.run_until(t).expect("advance to cut");
                        }
                        let e = session.add_edge(0.8).expect("join edge");
                        let k = session.add_cloud(1.7).expect("join cloud");
                        session.set_link(e, 0.6).expect("retune new link");
                        session.set_link(EdgeId(0), 0.9).expect("retune live link");
                        session.set_edge_speed(EdgeId(0), 0.3).expect("re-speed edge");
                        session.set_cloud_speed(CloudId(0), 0.5).expect("re-speed cloud");
                        session.remove_cloud(CloudId(1)).expect("drop live cloud");
                        if k != CloudId(1) {
                            session.remove_cloud(k).expect("leave cloud");
                        }
                        mutated = true;
                    }
                    if job.release > session.now() {
                        let _ = session.run_until(job.release).expect("session advance");
                    }
                    session.submit(*job).expect("valid job");
                }
                session.drain().expect("drains");
                session.into_outcome()
            };
            let fast = run(false);
            let reference = run(true);
            prop_assert_eq!(
                &fast.schedule,
                &reference.schedule,
                "{} schedule differs from its reference mode under mid-run mutation",
                kind
            );
            prop_assert_eq!(
                fast.stats.restarts,
                reference.stats.restarts,
                "{} restarts differ from its reference mode under mid-run mutation",
                kind
            );
        }
    }

    /// Tombstones are inert: join two extra units before the run and
    /// remove them again — the schedule must match a plain streamed run
    /// that never saw them. (Extra units are appended last, so the unit
    /// ids of the real platform are untouched.)
    #[test]
    fn pre_start_add_then_remove_is_inert(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
    ) {
        let inst = release_sorted(&inst);
        let empty = Instance::new(inst.spec.clone(), Vec::new()).expect("empty instance");
        for kind in PolicyKind::ALL {
            let run = |mutate: bool| {
                let mut policy = kind.build(policy_seed);
                let mut session = Simulation::of(&empty).policy(policy.as_mut()).session();
                if mutate {
                    let j = session.add_edge(0.7).expect("join edge");
                    let k = session.add_cloud(2.5).expect("join cloud");
                    session.remove_edge(j).expect("leave edge");
                    session.remove_cloud(k).expect("leave cloud");
                }
                for job in &inst.jobs {
                    if job.release > session.now() {
                        let _ = session.run_until(job.release).expect("session advance");
                    }
                    session.submit(*job).expect("valid job");
                }
                session.drain().expect("drains");
                session.into_outcome()
            };
            let plain = run(false);
            let churned = run(true);
            prop_assert_eq!(
                &churned.schedule.completion,
                &plain.schedule.completion,
                "{} completions differ under inert churn",
                kind
            );
            prop_assert_eq!(
                &churned.schedule.alloc,
                &plain.schedule.alloc,
                "{} allocations differ under inert churn",
                kind
            );
            prop_assert_eq!(
                churned.stats.restarts,
                plain.stats.restarts,
                "{} restarts differ under inert churn",
                kind
            );
        }
    }
}
