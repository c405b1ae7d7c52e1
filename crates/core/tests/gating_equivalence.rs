//! Decision-epoch gating and incremental policy state are pure
//! optimizations: for every registry policy, over random Kang / CCR
//! workloads and seeded fault plans, the gated + incremental engine run
//! must produce a bit-identical [`Schedule`] (and matching discrete
//! stats) to a reference run with gating disabled and the policies in
//! fresh-recompute mode ([`PolicyKind::build_reference`]).

use mmsec_core::PolicyKind;
use mmsec_faults::FaultConfig;
use mmsec_platform::{Instance, Simulation};
use mmsec_sim::Time;
use mmsec_workload::{KangConfig, RandomCcrConfig};
use proptest::prelude::*;

/// Workload family × size × generator seed, kept small so the whole
/// registry × fault matrix stays fast under proptest's case count.
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

/// Runs one (instance, policy, faults) point twice — optimized and
/// reference — and asserts bit-identical outcomes.
fn assert_equivalent(
    inst: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    faults: Option<(f64, f64, u64)>,
) -> Result<(), TestCaseError> {
    let mut fast = kind.build(policy_seed);
    let mut reference = kind.build_reference(policy_seed);
    let (a, b) = match faults {
        None => (
            Simulation::of(inst).policy(fast.as_mut()).run(),
            Simulation::of(inst).policy(reference.as_mut()).run(),
        ),
        Some((mtbf, mttr, fault_seed)) => {
            let cfg = FaultConfig::uniform_exponential(
                inst.spec.num_edge(),
                inst.spec.num_cloud(),
                mtbf,
                mttr,
            );
            let plan = cfg.compile(fault_seed, Time::new(1e5));
            (
                Simulation::of(inst)
                    .policy(fast.as_mut())
                    .faults(&plan)
                    .run(),
                Simulation::of(inst)
                    .policy(reference.as_mut())
                    .faults(&plan)
                    .run(),
            )
        }
    };
    match (a, b) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.schedule, &b.schedule, "{} schedule differs", kind);
            prop_assert_eq!(a.stats.events, b.stats.events, "{} event count", kind);
            prop_assert_eq!(a.stats.restarts, b.stats.restarts, "{} restarts", kind);
            // The reference run decides at every event; the gated run may
            // skip but must account for every event exactly once.
            prop_assert_eq!(b.stats.decides, b.stats.events);
            prop_assert_eq!(b.stats.decide_skips, 0);
            prop_assert_eq!(a.stats.decides + a.stats.decide_skips, a.stats.events);
        }
        // Both runs must fail identically (e.g. stalled on a dead unit).
        (a, b) => prop_assert_eq!(a.map(|o| o.schedule), b.map(|o| o.schedule)),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: gated + incremental ≡ ungated + recompute,
    /// for the whole policy registry, with and without faults.
    #[test]
    fn gated_incremental_equals_fresh_recompute(
        inst in arb_instance(),
        policy_seed in 0u64..1000,
        faults in arb_faults(),
    ) {
        for kind in PolicyKind::ALL {
            assert_equivalent(&inst, kind, policy_seed, faults)?;
        }
    }
}

/// Deterministic spot-check on a mid-size instance (bigger than the
/// proptest sizes, so gating actually skips a meaningful share of
/// events) — also pins the skip accounting invariant.
#[test]
fn gating_skips_events_on_larger_instances_without_changing_schedules() {
    let inst = RandomCcrConfig {
        n: 200,
        ..RandomCcrConfig::default()
    }
    .generate(7);
    let mut skipped_anywhere = false;
    for kind in PolicyKind::ALL {
        let mut fast = kind.build(3);
        let mut reference = kind.build_reference(3);
        let a = Simulation::of(&inst).policy(fast.as_mut()).run().unwrap();
        let b = Simulation::of(&inst)
            .policy(reference.as_mut())
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule, "{kind} schedule differs");
        assert_eq!(a.stats.decides + a.stats.decide_skips, a.stats.events);
        skipped_anywhere |= a.stats.decide_skips > 0;
    }
    assert!(
        skipped_anywhere,
        "no policy skipped a single decide at n=200 — gating is inert"
    );
}
