//! The paper's Figure 1 worked example as a test: the reconstructed
//! optimal schedule is valid and achieves max-stretch 3/2; no online
//! heuristic beats it (3/2 is optimal — see the window-counting argument
//! in DESIGN.md); per-job facts from the paper's §III-C discussion hold.

use mmsec_core::PolicyKind;
use mmsec_platform::metrics::try_report;
use mmsec_platform::schedule::TraceBuilder;
use mmsec_platform::{
    figure1_instance, validate, CloudId, JobId, Phase, Simulation, StretchReport, Target,
};
use mmsec_sim::{Interval, Time};

fn optimal_schedule() -> mmsec_platform::Schedule {
    let mut tb = TraceBuilder::new(6);
    let cloud = Target::Cloud(CloudId(0));
    let iv = Interval::from_secs;
    tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 3.0));
    tb.record(JobId(3), Phase::Compute, Target::Edge, iv(5.0, 6.0));
    tb.record(JobId(5), Phase::Compute, Target::Edge, iv(6.0, 7.0));
    tb.record(JobId(3), Phase::Compute, Target::Edge, iv(7.0, 10.0));
    tb.record(JobId(1), Phase::Uplink, cloud, iv(0.0, 2.0));
    tb.record(JobId(1), Phase::Compute, cloud, iv(2.0, 6.0));
    tb.record(JobId(1), Phase::Downlink, cloud, iv(6.0, 8.0));
    tb.record(JobId(2), Phase::Uplink, cloud, iv(3.0, 4.0));
    tb.record(JobId(2), Phase::Compute, cloud, iv(6.0, 8.0));
    tb.record(JobId(2), Phase::Downlink, cloud, iv(8.0, 9.0));
    tb.record(JobId(4), Phase::Uplink, cloud, iv(6.0, 7.0));
    tb.record(JobId(4), Phase::Compute, cloud, iv(8.0, 10.0));
    tb.record(JobId(4), Phase::Downlink, cloud, iv(10.0, 11.0));
    tb.complete(JobId(0), Time::new(3.0));
    tb.complete(JobId(1), Time::new(8.0));
    tb.complete(JobId(2), Time::new(9.0));
    tb.complete(JobId(3), Time::new(10.0));
    tb.complete(JobId(4), Time::new(11.0));
    tb.complete(JobId(5), Time::new(7.0));
    tb.finish()
}

#[test]
fn paper_job_parameters() {
    let inst = figure1_instance();
    let spec = &inst.spec;
    // §III-C: J1 and J6 run at their minimum time on the edge (cloud
    // would cost ≥ 10 units of communication).
    assert_eq!(inst.job(JobId(0)).edge_time(spec), 3.0);
    assert_eq!(inst.job(JobId(0)).best_cloud_time(spec), 11.0);
    assert_eq!(inst.job(JobId(5)).edge_time(spec), 1.0);
    // J2: 12 on the edge, 8 on the cloud.
    assert_eq!(inst.job(JobId(1)).edge_time(spec), 12.0);
    assert_eq!(inst.job(JobId(1)).best_cloud_time(spec), 8.0);
    // J3 and J5 share characteristics: 6 on the edge, 4 on the cloud.
    for id in [JobId(2), JobId(4)] {
        assert_eq!(inst.job(id).edge_time(spec), 6.0);
        assert_eq!(inst.job(id).best_cloud_time(spec), 4.0);
    }
    // J4: 4 units minimum, on the edge; cloud would cost 10 + 4/3.
    assert!((inst.job(JobId(3)).edge_time(spec) - 4.0).abs() < 1e-12);
    assert!((inst.job(JobId(3)).best_cloud_time(spec) - (10.0 + 4.0 / 3.0)).abs() < 1e-12);
}

#[test]
fn reconstructed_schedule_is_valid_and_achieves_three_halves() {
    let inst = figure1_instance();
    let schedule = optimal_schedule();
    assert_eq!(validate(&inst, &schedule), Ok(()));
    let report = StretchReport::new(&inst, &schedule);
    // J1, J6 at stretch 1; J2 at 1 (8 = its min time); J4 at 5/4 (paper:
    // preempted once by J6); J3, J5 at 3/2.
    let expect = [1.0, 1.0, 1.5, 1.25, 1.5, 1.0];
    for (i, (&got, &want)) in report.stretches.iter().zip(&expect).enumerate() {
        assert!(
            (got - want).abs() < 1e-9,
            "job {i}: stretch {got}, expected {want}"
        );
    }
    assert!((report.max_stretch - 1.5).abs() < 1e-12);
}

#[test]
fn try_report_agrees_with_figure1() {
    // The fallible path must agree with `StretchReport::new` on the
    // reconstructed optimum: same max stretch, and the argmax is the
    // first job attaining it (J3, stretch 3/2).
    let inst = figure1_instance();
    let schedule = optimal_schedule();
    let report = try_report(&inst, &schedule).expect("schedule is complete");
    assert_eq!(report, StretchReport::new(&inst, &schedule));
    assert!((report.max_stretch - 1.5).abs() < 1e-12);
    assert_eq!(report.argmax, Some(JobId(2)));
    assert!((report.stretches[2] - report.max_stretch).abs() < 1e-12);
}

#[test]
fn online_heuristics_cannot_beat_the_offline_optimum() {
    let inst = figure1_instance();
    for kind in PolicyKind::ALL {
        let mut policy = kind.build(3);
        let out = Simulation::of(&inst).policy(policy.as_mut()).run().unwrap();
        assert!(validate(&inst, &out.schedule).is_ok(), "{kind}");
        let r = StretchReport::new(&inst, &out.schedule);
        assert!(
            r.max_stretch >= 1.5 - 1e-6,
            "{kind} beat the offline optimum: {}",
            r.max_stretch
        );
    }
}

#[test]
fn exhaustive_oracle_confirms_three_halves() {
    // The order-based exhaustive oracle (every allocation × every
    // placement order) also lands exactly on 3/2 — together with the
    // window-counting lower-bound argument (DESIGN.md) this pins the
    // optimum of the Figure 1 instance.
    let inst = figure1_instance();
    let oracle = mmsec_offline::optimal_order_based(&inst);
    assert!(
        (oracle.max_stretch - 1.5).abs() < 1e-9,
        "oracle found {}",
        oracle.max_stretch
    );
}

#[test]
fn full_overlap_at_time_six_and_a_half() {
    // The schedule exhibits the paper's four-way overlap: at t ∈ (6, 7)
    // the edge computes (J6), the cloud computes (J3), an uplink (J5) and
    // a downlink (J2) are all in flight.
    let schedule = optimal_schedule();
    let t = 6.5;
    let active = |ivs: &[Interval]| ivs.iter().any(|iv| iv.contains(Time::new(t)));
    assert!(active(schedule.exec(5)), "edge computes J6");
    assert!(active(schedule.exec(2)), "cloud computes J3");
    assert!(active(schedule.up(4)), "J5 uplink in flight");
    assert!(active(schedule.dn(1)), "J2 downlink in flight");
}
