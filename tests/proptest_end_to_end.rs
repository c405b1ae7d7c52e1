//! End-to-end property tests across the whole stack: generators →
//! policies → engine → validator → metrics.

use mmsec_core::PolicyKind;
use mmsec_platform::{validate, Instance, Simulation, StretchReport};
use mmsec_workload::{KangConfig, RandomCcrConfig};
use proptest::prelude::*;

fn arb_random_cfg() -> impl Strategy<Value = RandomCcrConfig> {
    (
        1usize..25,   // n
        0.1f64..10.0, // ccr
        0.05f64..2.0, // load
        1usize..4,    // clouds
        1usize..3,    // slow edges
        0usize..3,    // fast edges
    )
        .prop_map(|(n, ccr, load, num_cloud, slow, fast)| RandomCcrConfig {
            n,
            ccr,
            load,
            num_cloud,
            slow_edges: slow,
            fast_edges: fast,
            ..RandomCcrConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated random-CCR instance is valid, scheduleable by every
    /// policy, and yields stretches ≥ 1.
    #[test]
    fn random_ccr_end_to_end(cfg in arb_random_cfg(), seed in any::<u64>()) {
        let inst = cfg.generate(seed);
        prop_assert!(inst.validate().is_ok());
        for kind in [PolicyKind::Greedy, PolicyKind::Srpt, PolicyKind::SsfEdf, PolicyKind::EdgeOnly] {
            let mut policy = kind.build(seed);
            let out = Simulation::of(&inst).policy(policy.as_mut()).run()
                .map_err(|e| TestCaseError::fail(format!("{kind}: {e}")))?;
            if let Err(v) = validate(&inst, &out.schedule) {
                return Err(TestCaseError::fail(format!("{kind}: {}", v[0])));
            }
            let r = StretchReport::new(&inst, &out.schedule);
            prop_assert!(r.max_stretch >= 1.0 - 1e-9);
            prop_assert!(r.mean_stretch <= r.max_stretch + 1e-9);
        }
    }

    /// Kang instances: same end-to-end guarantee, plus dn = 0 invariants.
    #[test]
    fn kang_end_to_end(
        n in 1usize..20,
        num_edge in 1usize..8,
        load in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = KangConfig { n, num_edge, num_cloud: 3, load, ..KangConfig::default() };
        let inst = cfg.generate(seed);
        prop_assert!(inst.jobs.iter().all(|j| j.dn == 0.0));
        for kind in [PolicyKind::Srpt, PolicyKind::SsfEdf] {
            let mut policy = kind.build(seed);
            let out = Simulation::of(&inst).policy(policy.as_mut()).run()
                .map_err(|e| TestCaseError::fail(format!("{kind}: {e}")))?;
            if let Err(v) = validate(&inst, &out.schedule) {
                return Err(TestCaseError::fail(format!("{kind}: {}", v[0])));
            }
            // Downlink interval sets stay empty for dn = 0 jobs.
            for i in 0..inst.num_jobs() {
                prop_assert!(out.schedule.dn(i).is_empty());
            }
        }
    }

    /// Instance text serialization round-trips exactly.
    #[test]
    fn instance_text_roundtrip(cfg in arb_random_cfg(), seed in any::<u64>()) {
        let inst = cfg.generate(seed);
        let text = inst.to_text();
        let back = Instance::from_text(&text)
            .map_err(|e| TestCaseError::fail(format!("parse: {e}")))?;
        prop_assert_eq!(inst, back);
    }

    /// The stretch-so-far optimum (offline single machine) lower-bounds
    /// what Edge-Only achieves per edge unit on single-edge instances.
    #[test]
    fn edge_only_dominated_by_offline_optimum(
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        use mmsec_offline::single_machine::{optimal_max_stretch, OfflineJob};
        let cfg = RandomCcrConfig {
            n,
            num_cloud: 0,
            slow_edges: 1,
            fast_edges: 0,
            ..RandomCcrConfig::default()
        };
        let inst = cfg.generate(seed);
        let speed = inst.spec.edge_speed(mmsec_platform::EdgeId(0));
        let jobs: Vec<OfflineJob> = inst
            .jobs
            .iter()
            .map(|j| OfflineJob {
                release: j.release.seconds(),
                proc_time: j.work / speed,
                min_time: j.min_time(&inst.spec),
            })
            .collect();
        let offline_opt = optimal_max_stretch(&jobs, 1e-6);
        let mut policy = PolicyKind::EdgeOnly.build(seed);
        let out = Simulation::of(&inst).policy(policy.as_mut()).run().unwrap();
        let got = StretchReport::new(&inst, &out.schedule).max_stretch;
        prop_assert!(
            got >= offline_opt - 1e-4,
            "edge-only {} beat the offline optimum {}",
            got,
            offline_opt
        );
    }
}
