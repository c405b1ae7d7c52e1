//! The engine-option matrix: every combination of {one-port/∞-port,
//! preemption on/off, re-execution on/off} must yield valid schedules for
//! every policy, and the restricted modes must exhibit their defining
//! invariants.

use mmsec_core::PolicyKind;
use mmsec_platform::{validate_with, EngineOptions, Simulation, StretchReport, ValidateOptions};
use mmsec_workload::RandomCcrConfig;

fn cfg() -> RandomCcrConfig {
    RandomCcrConfig {
        n: 40,
        ccr: 1.0,
        load: 0.4,
        num_cloud: 4,
        slow_edges: 2,
        fast_edges: 2,
        ..RandomCcrConfig::default()
    }
}

fn option_matrix() -> Vec<EngineOptions> {
    let mut out = Vec::new();
    for infinite_ports in [false, true] {
        for allow_preemption in [true, false] {
            for allow_reexecution in [true, false] {
                out.push(EngineOptions {
                    infinite_ports,
                    allow_preemption,
                    allow_reexecution,
                });
            }
        }
    }
    out
}

#[test]
fn every_option_combination_validates() {
    let inst = cfg().generate(31);
    for opts in option_matrix() {
        for kind in [
            PolicyKind::Greedy,
            PolicyKind::Srpt,
            PolicyKind::SsfEdf,
            PolicyKind::Fcfs,
        ] {
            let mut policy = kind.build(1);
            let out = Simulation::of(&inst)
                .policy(policy.as_mut())
                .options(opts)
                .run()
                .unwrap_or_else(|e| panic!("{kind} with {opts:?}: {e}"));
            assert!(out.schedule.all_finished(), "{kind} with {opts:?}");
            let vopts = ValidateOptions {
                check_ports: !opts.infinite_ports,
                ..ValidateOptions::default()
            };
            if let Err(v) = validate_with(&inst, &out.schedule, vopts) {
                panic!(
                    "{kind} with {opts:?}: {} violations, first {}",
                    v.len(),
                    v[0]
                );
            }
            let r = StretchReport::new(&inst, &out.schedule);
            assert!(r.max_stretch >= 1.0 - 1e-9);
        }
    }
}

#[test]
fn no_reexecution_means_no_restarts() {
    let inst = cfg().generate(32);
    let opts = EngineOptions {
        allow_reexecution: false,
        ..EngineOptions::default()
    };
    for kind in [PolicyKind::Greedy, PolicyKind::Srpt, PolicyKind::SsfEdf] {
        let mut policy = kind.build(2);
        let out = Simulation::of(&inst)
            .policy(policy.as_mut())
            .options(opts)
            .run()
            .unwrap();
        assert_eq!(out.stats.restarts, 0, "{kind} restarted without permission");
        assert!(out.schedule.restarts.iter().all(|&r| r == 0));
        assert!(out.schedule.abandoned.is_empty());
    }
}

#[test]
fn non_preemptive_phases_are_contiguous() {
    let inst = cfg().generate(33);
    let opts = EngineOptions {
        allow_preemption: false,
        allow_reexecution: false,
        ..EngineOptions::default()
    };
    for kind in [PolicyKind::Srpt, PolicyKind::Fcfs] {
        let mut policy = kind.build(3);
        let out = Simulation::of(&inst)
            .policy(policy.as_mut())
            .options(opts)
            .run()
            .unwrap();
        for i in 0..inst.num_jobs() {
            // Each phase of each job runs in at most one contiguous block.
            assert!(
                out.schedule.exec(i).len() <= 1,
                "{kind}: job {i} exec preempted: {:?}",
                out.schedule.exec(i)
            );
            assert!(out.schedule.up(i).len() <= 1);
            assert!(out.schedule.dn(i).len() <= 1);
        }
    }
}

#[test]
fn preemption_never_hurts_ssf_edf_on_average() {
    // Not a theorem per-instance (anomalies exist) — but averaged over a
    // batch, the paper's model (preemption on) must not lose to the
    // restricted one for the deadline-driven policy.
    let mut with_sum = 0.0;
    let mut without_sum = 0.0;
    for seed in 0..10u64 {
        let inst = cfg().generate(100 + seed);
        let mut a = PolicyKind::SsfEdf.build(1);
        with_sum += StretchReport::new(
            &inst,
            &Simulation::of(&inst)
                .policy(a.as_mut())
                .run()
                .unwrap()
                .schedule,
        )
        .max_stretch;
        let mut b = PolicyKind::SsfEdf.build(1);
        without_sum += StretchReport::new(
            &inst,
            &Simulation::of(&inst)
                .policy(b.as_mut())
                .options(EngineOptions {
                    allow_preemption: false,
                    allow_reexecution: false,
                    ..EngineOptions::default()
                })
                .run()
                .unwrap()
                .schedule,
        )
        .max_stretch;
    }
    assert!(
        with_sum <= without_sum * 1.05,
        "preemption hurt on average: {with_sum} vs {without_sum}"
    );
}
