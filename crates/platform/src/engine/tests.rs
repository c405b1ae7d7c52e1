use super::*;
use crate::activity::Target;
use crate::instance::figure1_instance;
use crate::job::{Job, JobId};
use crate::spec::{CloudId, EdgeId, PlatformSpec};
use mmsec_obs::{Event as ObsEvent, Observer};
use mmsec_sim::interval::total_length;
use mmsec_sim::{Interval, Time};

/// Sends every job to the cloud processor 0, FIFO priority.
struct AllCloudFifo;
impl OnlineScheduler for AllCloudFifo {
    fn name(&self) -> String {
        "all-cloud-fifo".into()
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        for j in view.pending_jobs() {
            out.push(j, Target::Cloud(CloudId(0)));
        }
    }
}

/// Runs every job locally, FIFO priority.
struct AllEdgeFifo;
impl OnlineScheduler for AllEdgeFifo {
    fn name(&self) -> String {
        "all-edge-fifo".into()
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        for j in view.pending_jobs() {
            out.push(j, Target::Edge);
        }
    }
}

/// Never schedules anything.
struct DoNothing;
impl OnlineScheduler for DoNothing {
    fn name(&self) -> String {
        "do-nothing".into()
    }
    fn decide(&mut self, _view: &SimView<'_>, _out: &mut DirectiveBuffer) {}
}

fn single_job_instance(work: f64, up: f64, dn: f64) -> Instance {
    let spec = PlatformSpec::builder()
        .edges(vec![0.5])
        .cloud_pool(1)
        .build();
    Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, work, up, dn)]).unwrap()
}

#[test]
fn single_cloud_job_timing() {
    let inst = single_job_instance(3.0, 1.0, 2.0);
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    // up 1 + work 3 + dn 2 = 6.
    assert_eq!(out.schedule.completion[0], Some(Time::new(6.0)));
    assert_eq!(out.schedule.alloc[0], Some(Target::Cloud(CloudId(0))));
    assert_eq!(total_length(out.schedule.up(0)), Time::new(1.0));
    assert_eq!(total_length(out.schedule.exec(0)), Time::new(3.0));
    assert_eq!(total_length(out.schedule.dn(0)), Time::new(2.0));
    assert!(out.stats.events <= 8);
}

#[test]
fn single_edge_job_timing() {
    let inst = single_job_instance(3.0, 1.0, 2.0);
    let out = Simulation::of(&inst)
        .policy(&mut AllEdgeFifo)
        .run()
        .unwrap();
    // 3 work at speed 0.5 → 6 seconds.
    assert_eq!(out.schedule.completion[0], Some(Time::new(6.0)));
    assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
    assert!(out.schedule.up(0).is_empty());
}

#[test]
fn zero_comm_job_skips_phases() {
    let inst = single_job_instance(4.0, 0.0, 0.0);
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    assert_eq!(out.schedule.completion[0], Some(Time::new(4.0)));
    assert!(out.schedule.up(0).is_empty());
    assert!(out.schedule.dn(0).is_empty());
}

#[test]
fn release_dates_are_respected() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![Job::new(EdgeId(0), 5.0, 2.0, 0.0, 0.0)];
    let inst = Instance::new(spec, jobs).unwrap();
    let out = Simulation::of(&inst)
        .policy(&mut AllEdgeFifo)
        .run()
        .unwrap();
    assert_eq!(
        out.schedule.exec(0).first().map(Interval::start),
        Some(Time::new(5.0))
    );
    assert_eq!(out.schedule.completion[0], Some(Time::new(7.0)));
}

#[test]
fn cloud_serializes_two_jobs() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
        Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
    ];
    let inst = Instance::new(spec, jobs).unwrap();
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    // J1: up [0,1), exec [1,3), dn [3,4). J2's uplink must wait for the
    // edge send port: up [1,2), exec [3,5), dn [5,6).
    assert_eq!(out.schedule.completion[0], Some(Time::new(4.0)));
    assert_eq!(out.schedule.completion[1], Some(Time::new(6.0)));
    assert_eq!(
        out.schedule.up(1).first().map(Interval::start),
        Some(Time::new(1.0))
    );
}

#[test]
fn stalled_scheduler_reports_error() {
    let inst = single_job_instance(1.0, 0.0, 0.0);
    let err = Simulation::of(&inst)
        .policy(&mut DoNothing)
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::Stalled { pending, .. } if pending.len() == 1));
}

/// Stall forensics: a flight recorder riding along a stalled run holds
/// the lead-up events and dumps a parseable artifact naming them.
#[test]
fn stalled_run_flight_dump_holds_the_lead_up_events() {
    use mmsec_obs::{json, FlightRecorder, Shared};
    let inst = single_job_instance(1.0, 0.0, 0.0);
    let flight = Shared::new(FlightRecorder::with_capacity(8));
    let mut engine_side = flight.clone();
    let err = Simulation::of(&inst)
        .policy(&mut DoNothing)
        .observer(&mut engine_side)
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::Stalled { .. }));

    let dir = std::env::temp_dir().join(format!("mmsec-stall-dump-{}", std::process::id()));
    std::env::set_var("MMSEC_FAILURE_DIR", &dir);
    let path = flight
        .with(|f| f.dump("stall-test"))
        .expect("ring has events");
    std::env::remove_var("MMSEC_FAILURE_DIR");
    assert!(path.starts_with(&dir));

    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("mmsec-flight/1")
    );
    let tags: Vec<&str> = doc
        .get("events")
        .and_then(json::Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("tag").and_then(json::Json::as_str))
        .collect();
    // The lead-up to the stall: the run started, the job was released,
    // and the policy decided (granting nothing) before the engine gave up.
    assert!(tags.contains(&"run-start"), "tags: {tags:?}");
    assert!(tags.contains(&"job-released"), "tags: {tags:?}");
    assert!(tags.contains(&"decide-end"), "tags: {tags:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infinite_ports_allow_parallel_uplinks() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(2)
        .build();
    // Two jobs from the same edge, each to a different cloud processor.
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 1.0, 2.0, 0.0),
        Job::new(EdgeId(0), 0.0, 1.0, 2.0, 0.0),
    ];
    let inst = Instance::new(spec, jobs).unwrap();

    struct SpreadCloud;
    impl OnlineScheduler for SpreadCloud {
        fn name(&self) -> String {
            "spread".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            for j in view.pending_jobs() {
                out.push(j, Target::Cloud(CloudId(j.0 % 2)));
            }
        }
    }

    // One-port: second uplink waits → completions 3 and 5.
    let strict = Simulation::of(&inst)
        .policy(&mut SpreadCloud)
        .run()
        .unwrap();
    assert_eq!(strict.schedule.completion[0], Some(Time::new(3.0)));
    assert_eq!(strict.schedule.completion[1], Some(Time::new(5.0)));

    // Macro-dataflow ablation: both uplinks in parallel → both at 3.
    let loose = Simulation::of(&inst)
        .policy(&mut SpreadCloud)
        .options(EngineOptions {
            infinite_ports: true,
            ..EngineOptions::default()
        })
        .run()
        .unwrap();
    assert_eq!(loose.schedule.completion[0], Some(Time::new(3.0)));
    assert_eq!(loose.schedule.completion[1], Some(Time::new(3.0)));
}

/// Starts the job on the edge, then retargets it to the cloud at the
/// second decision.
struct Flip {
    calls: u32,
}
impl OnlineScheduler for Flip {
    fn name(&self) -> String {
        "flip".into()
    }
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        self.calls += 1;
        let tgt = if self.calls == 1 {
            Target::Edge
        } else {
            Target::Cloud(CloudId(0))
        };
        for j in view.pending_jobs() {
            out.push(j, tgt);
        }
    }
}

#[test]
fn reexecution_wipes_progress() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![Job::new(EdgeId(0), 0.0, 4.0, 1.0, 1.0)];
    let inst = Instance::new(spec, jobs).unwrap();

    // Add a decoy job released at t=2 to create a mid-flight event (after
    // 4 work-seconds would be too late, so we force an artificial event
    // via a second job's release).
    let mut jobs2 = inst.jobs.clone();
    jobs2.push(Job::new(EdgeId(0), 2.0, 0.5, 10.0, 10.0));
    let inst2 = Instance::new(inst.spec.clone(), jobs2).unwrap();
    let out = Simulation::of(&inst2)
        .policy(&mut Flip { calls: 0 })
        .run()
        .unwrap();
    // J1 runs on edge [0,2) (2 of 4 work done), then restarts on the
    // cloud at t=2: up [2,3), exec [3,7), dn [7,8).
    assert_eq!(out.schedule.completion[0], Some(Time::new(8.0)));
    assert_eq!(out.schedule.restarts[0], 1);
    assert_eq!(out.schedule.wasted_time(), Time::new(2.0));
    assert_eq!(out.stats.restarts, 1);
    assert_eq!(out.schedule.alloc[0], Some(Target::Cloud(CloudId(0))));
}

#[test]
fn reexecution_can_be_disabled() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 4.0, 1.0, 1.0),
        Job::new(EdgeId(0), 2.0, 0.5, 10.0, 10.0),
    ];
    let inst = Instance::new(spec, jobs).unwrap();

    let out = Simulation::of(&inst)
        .policy(&mut Flip { calls: 0 })
        .options(EngineOptions {
            allow_reexecution: false,
            ..EngineOptions::default()
        })
        .run()
        .unwrap();
    // The retarget is refused: J1 stays on the edge, finishing at 4.
    assert_eq!(out.schedule.completion[0], Some(Time::new(4.0)));
    assert_eq!(out.schedule.restarts[0], 0);
    assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
}

#[test]
fn non_preemptive_mode_pins_activities() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(0)
        .build();
    // Long job first, short job released mid-flight. LIFO priority
    // would preempt; non-preemptive mode must refuse.
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
        Job::new(EdgeId(0), 1.0, 1.0, 0.0, 0.0),
    ];
    let inst = Instance::new(spec, jobs).unwrap();

    struct Lifo;
    impl OnlineScheduler for Lifo {
        fn name(&self) -> String {
            "lifo".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            let mut v: Vec<_> = view.pending_jobs().collect();
            v.reverse();
            for j in v {
                out.push(j, Target::Edge);
            }
        }
    }

    let preemptive = Simulation::of(&inst).policy(&mut Lifo).run().unwrap();
    assert_eq!(preemptive.schedule.completion[1], Some(Time::new(2.0)));
    assert_eq!(preemptive.schedule.completion[0], Some(Time::new(11.0)));

    let nonpre = Simulation::of(&inst)
        .policy(&mut Lifo)
        .options(EngineOptions {
            allow_preemption: false,
            ..EngineOptions::default()
        })
        .run()
        .unwrap();
    assert_eq!(nonpre.schedule.completion[0], Some(Time::new(10.0)));
    assert_eq!(nonpre.schedule.completion[1], Some(Time::new(11.0)));
}

#[test]
fn unavailability_window_pauses_cloud_compute() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build()
        .with_cloud_unavailability(CloudId(0), &[Interval::from_secs(2.0, 5.0)]);
    let jobs = vec![Job::new(EdgeId(0), 0.0, 4.0, 1.0, 0.0)];
    let inst = Instance::new(spec, jobs).unwrap();
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    // up [0,1), exec [1,2) then paused during [2,5), exec [5,8).
    assert_eq!(out.schedule.completion[0], Some(Time::new(8.0)));
    assert_eq!(total_length(out.schedule.exec(0)), Time::new(4.0));
    assert_eq!(out.schedule.exec(0).len(), 2);
}

#[test]
fn figure1_runs_under_fifo_policies() {
    let inst = figure1_instance();
    let out = Simulation::of(&inst)
        .policy(&mut AllEdgeFifo)
        .run()
        .unwrap();
    assert!(out.schedule.all_finished());
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    assert!(out.schedule.all_finished());
}

#[test]
fn observed_run_emits_a_well_formed_event_stream() {
    struct Capture(Vec<String>, usize, usize);
    impl Observer for Capture {
        fn on_event(&mut self, event: &ObsEvent) {
            self.0.push(event.tag().to_string());
            match event {
                ObsEvent::Placed { interval, .. } => {
                    assert!(interval.length() > Time::ZERO);
                    self.1 += 1;
                }
                ObsEvent::Completed { response, .. } => {
                    assert!(*response > 0.0);
                    self.2 += 1;
                }
                _ => {}
            }
        }
    }
    let inst = figure1_instance();
    let mut cap = Capture(Vec::new(), 0, 0);
    let out = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .observer(&mut cap)
        .run()
        .unwrap();
    let Capture(tags, placed, completed) = cap;
    assert_eq!(tags.first().map(String::as_str), Some("run-start"));
    assert_eq!(tags.last().map(String::as_str), Some("run-end"));
    assert_eq!(tags.iter().filter(|t| *t == "job-released").count(), 6);
    assert_eq!(completed, 6);
    // Each cloud job contributes at least uplink + compute + downlink.
    assert!(placed >= 3 * 6, "only {placed} placements observed");
    // Every decide-start is eventually closed by a decide-end.
    assert_eq!(
        tags.iter().filter(|t| *t == "decide-start").count(),
        tags.iter().filter(|t| *t == "decide-end").count()
    );
    // The observed run produces the same schedule as the plain one.
    let plain = Simulation::of(&inst)
        .policy(&mut AllCloudFifo)
        .run()
        .unwrap();
    assert_eq!(out.schedule, plain.schedule);
}

#[test]
fn auto_event_limit_catches_livelocked_policy() {
    // A genuinely livelocked policy: it flips the single job between two
    // cloud processors at every decision. Each uplink completion triggers
    // a decision, the retarget wipes the uplink progress, and a fresh
    // uplink starts — the simulation generates events forever without
    // ever finishing the job. The automatic `1000 + 64·n + 8·w` cap (see
    // `events::auto_event_limit`) must abort the run.
    struct Thrash {
        calls: u64,
    }
    impl OnlineScheduler for Thrash {
        fn name(&self) -> String {
            "thrash".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            self.calls += 1;
            let tgt = Target::Cloud(CloudId((self.calls % 2) as usize));
            for j in view.pending_jobs() {
                out.push(j, tgt);
            }
        }
    }

    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(2)
        .build();
    let jobs = vec![Job::new(EdgeId(0), 0.0, 1.0, 1.0, 1.0)];
    let inst = Instance::new(spec, jobs).unwrap();
    let expected = events::auto_event_limit(&inst);
    assert_eq!(expected, 1000 + 64);
    let err = Simulation::of(&inst)
        .policy(&mut Thrash { calls: 0 })
        .run()
        .unwrap_err();
    assert_eq!(err, EngineError::EventLimit { limit: expected });
}

#[test]
fn pending_set_is_maintained_incrementally() {
    // Two staggered jobs: the pending counts the decision points report
    // must follow the release/completion lifecycle exactly.
    struct Pending(Vec<usize>);
    impl Observer for Pending {
        fn on_event(&mut self, event: &ObsEvent) {
            if let ObsEvent::DecideStart { pending, .. } | ObsEvent::DecideSkipped { pending, .. } =
                event
            {
                self.0.push(*pending);
            }
        }
    }
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
        Job::new(EdgeId(0), 1.0, 2.0, 0.0, 0.0),
    ];
    let inst = Instance::new(spec, jobs).unwrap();
    let mut counts = Pending(Vec::new());
    Simulation::of(&inst)
        .policy(&mut AllEdgeFifo)
        .observer(&mut counts)
        .run()
        .unwrap();
    // t=0: job 0 pending; t=1: both pending; t=2: job 0 done, job 1 left.
    assert_eq!(counts.0, vec![1, 2, 1]);
}

// ---------------------------------------------------------------------------
// Fault injection (see `mmsec-faults` and `docs/faults.md`).
// ---------------------------------------------------------------------------

mod faults {
    use super::*;
    use mmsec_faults::{FaultPlan, LinkWindow};
    use mmsec_sim::Interval;

    #[test]
    fn empty_plan_is_bit_identical_to_fault_free_run() {
        let inst = figure1_instance();
        let plain = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .run()
            .unwrap();
        let plan = FaultPlan::empty(inst.spec.num_edge(), inst.spec.num_cloud());
        let faulted = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(plain.schedule, faulted.schedule);
        assert_eq!(plain.stats.events, faulted.stats.events);
    }

    #[test]
    fn edge_crash_wipes_local_progress_and_restarts() {
        // Work 4 at edge speed 0.5 → 8 s nominally. The crash at t = 2
        // wipes the first unit of work; the job restarts from scratch when
        // the edge recovers at t = 3 and finishes at 3 + 8 = 11.
        let inst = single_job_instance(4.0, 0.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_edge_down(0, Interval::from_secs(2.0, 3.0));
        let out = Simulation::of(&inst)
            .policy(&mut AllEdgeFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(out.schedule.completion[0], Some(Time::new(11.0)));
        assert_eq!(out.stats.restarts, 1);
    }

    #[test]
    fn cloud_crash_during_downlink_rereleases_instead_of_completing() {
        // Phases without faults: up [0,1), exec [1,2), dn [2,4) → C = 4.
        // The cloud crashes at t = 2.5 — mid-downlink, after the compute
        // has finished. Paper restart semantics: the result is lost and the
        // job re-runs from scratch, it does NOT silently complete. The
        // re-run waits for recovery at t = 3 (the down cloud's ports are
        // blocked): up [3,4), exec [4,5), dn [5,7).
        let inst = single_job_instance(1.0, 1.0, 2.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_cloud_down(0, Interval::from_secs(2.5, 3.0));
        let out = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(out.schedule.completion[0], Some(Time::new(7.0)));
        assert_eq!(out.stats.restarts, 1);
    }

    #[test]
    fn origin_edge_crash_pauses_cloud_committed_job_without_restart() {
        // Up 2, work 1, no downlink → C = 3 without faults. The origin
        // edge goes down during the uplink [1, 2): a cloud-committed job is
        // not killed — its data is already (partially) off the edge — but
        // the edge's ports are blocked, so the uplink pauses and resumes on
        // recovery with progress intact: up [0,1) ∪ [2,3), exec [3,4).
        let inst = single_job_instance(1.0, 2.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_edge_down(0, Interval::from_secs(1.0, 2.0));
        let out = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(out.schedule.completion[0], Some(Time::new(4.0)));
        assert_eq!(out.stats.restarts, 0);
        assert_eq!(total_length(out.schedule.up(0)), Time::new(2.0));
    }

    #[test]
    fn link_outage_pauses_comm_without_restart() {
        // Same shape as above but through a link window with factor 0: the
        // edge CPU stays usable, only the ports are blocked.
        let inst = single_job_instance(1.0, 2.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_link_window(0, LinkWindow::new(Interval::from_secs(1.0, 2.0), 0.0));
        let out = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(out.schedule.completion[0], Some(Time::new(4.0)));
        assert_eq!(out.stats.restarts, 0);
    }

    #[test]
    fn link_degradation_slows_comm_only() {
        // Factor 0.5 over the whole run: the 1-second uplink takes 2
        // seconds, the compute is unaffected → up [0,2), exec [2,3).
        let inst = single_job_instance(1.0, 1.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_link_window(0, LinkWindow::new(Interval::from_secs(0.0, 10.0), 0.5));
        let out = Simulation::of(&inst)
            .policy(&mut AllCloudFifo)
            .faults(&plan)
            .run()
            .unwrap();
        assert_eq!(out.schedule.completion[0], Some(Time::new(3.0)));
        assert_eq!(total_length(out.schedule.up(0)), Time::new(2.0));
        assert_eq!(total_length(out.schedule.exec(0)), Time::new(1.0));
        assert_eq!(out.stats.restarts, 0);
    }

    #[test]
    fn permanently_down_unit_surfaces_clean_stall_not_event_limit() {
        // The only unit the policy will use fail-stops mid-run. The engine
        // must surface `Stalled` (job can never finish) rather than
        // livelocking into `EventLimit`.
        let inst = single_job_instance(4.0, 0.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.set_edge_dead_from(0, Time::new(2.0));
        let err = Simulation::of(&inst)
            .policy(&mut AllEdgeFifo)
            .faults(&plan)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Stalled { ref pending, .. } if pending.len() == 1),
            "expected Stalled, got {err:?}"
        );
    }

    #[test]
    fn fault_events_reach_the_observer() {
        struct Capture(Vec<String>);
        impl Observer for Capture {
            fn on_event(&mut self, event: &ObsEvent) {
                self.0.push(event.tag().to_string());
            }
        }
        let inst = single_job_instance(4.0, 0.0, 0.0);
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_edge_down(0, Interval::from_secs(2.0, 3.0));
        let mut cap = Capture(Vec::new());
        Simulation::of(&inst)
            .policy(&mut AllEdgeFifo)
            .faults(&plan)
            .observer(&mut cap)
            .run()
            .unwrap();
        assert!(cap.0.iter().any(|t| t == "unit-down"));
        assert!(cap.0.iter().any(|t| t == "unit-up"));
        assert!(cap.0.iter().any(|t| t == "job-killed"));
    }
}

// ---------------------------------------------------------------------------
// Streaming sessions (see `engine::session`).
// ---------------------------------------------------------------------------

mod session {
    use super::*;

    /// Every `Completed` event of a session, in emission order.
    #[derive(Default)]
    struct Completions(Vec<ObsEvent>);
    impl Observer for Completions {
        fn on_event(&mut self, event: &ObsEvent) {
            if let ObsEvent::Completed { .. } = event {
                self.0.push(event.clone());
            }
        }
    }

    #[test]
    fn mid_run_submit_is_bit_identical_to_batch() {
        // Batch: both jobs known up front.
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let j0 = Job::new(EdgeId(0), 0.0, 3.0, 1.0, 1.0);
        let j1 = Job::new(EdgeId(0), 3.0, 2.0, 1.0, 1.0);
        let batch_inst = Instance::new(spec.clone(), vec![j0, j1]).unwrap();
        let batch = Simulation::of(&batch_inst)
            .policy(&mut AllCloudFifo)
            .run()
            .unwrap();

        // Session: the second job arrives only once time has reached its
        // release date.
        let inst = Instance::new(spec, vec![j0]).unwrap();
        let mut policy = AllCloudFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        assert_eq!(
            session.run_until(Time::new(3.0)).unwrap(),
            SessionStatus::Reached
        );
        let id = session.submit(j1).unwrap();
        assert_eq!(id, JobId(1));
        session.drain().unwrap();
        let out = session.into_outcome();

        assert_eq!(out.schedule, batch.schedule);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let inst = single_job_instance(3.0, 1.0, 2.0); // completes at 6.
        let mut policy = AllCloudFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        assert_eq!(
            session.run_until(Time::new(2.5)).unwrap(),
            SessionStatus::Reached
        );
        assert_eq!(session.now(), Time::new(2.5));
        // Re-requesting the same bound is a cheap no-op, not an event.
        let events = session.snapshot().run.events;
        assert_eq!(
            session.run_until(Time::new(2.5)).unwrap(),
            SessionStatus::Reached
        );
        assert_eq!(session.snapshot().run.events, events);
        // A generous bound runs to completion.
        assert_eq!(
            session.run_until(Time::new(100.0)).unwrap(),
            SessionStatus::Done
        );
        assert!(session.is_idle());
        let out = session.into_outcome();
        assert_eq!(out.schedule.completion[0], Some(Time::new(6.0)));
    }

    #[test]
    fn pause_does_not_change_the_schedule() {
        let inst = figure1_instance();
        let mut policy = AllCloudFifo;
        let batch = Simulation::of(&inst).policy(&mut policy).run().unwrap();

        let mut policy = AllCloudFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        // Pause at many awkward instants, including repeats.
        for k in 1..40 {
            session.run_until(Time::new(k as f64 * 0.7)).unwrap();
        }
        session.drain().unwrap();
        assert_eq!(session.into_outcome().schedule, batch.schedule);
    }

    #[test]
    fn pauses_keep_their_event_budget_across_submits() {
        // Each capped pause and each platform mutation earns one event of
        // livelock budget; a later submit must keep those earnings. A
        // served lane pauses at every heartbeat, so without them a long
        // job exhausts `1000 + 64·n` and aborts a healthy run.
        let inst = single_job_instance(500.0, 0.0, 0.0); // edge speed 0.5: 1000 s.
        let mut policy = AllEdgeFifo;
        let mut done = Completions::default();
        let mut session = Simulation::of(&inst)
            .policy(&mut policy)
            .observer(&mut done)
            .session();
        for k in 1..=2000 {
            assert_eq!(
                session.run_until(Time::new(k as f64 * 0.1)).unwrap(),
                SessionStatus::Reached
            );
        }
        session
            .submit(Job::new(EdgeId(0), 200.0, 1.0, 0.0, 0.0))
            .unwrap();
        session.drain().unwrap();
        drop(session);
        assert_eq!(done.0.len(), 2);
    }

    #[test]
    fn blocked_session_wakes_on_submit() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)]).unwrap();
        let mut policy = DoNothing;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        // The scheduler grants nothing and no future event exists.
        assert_eq!(session.step().unwrap(), SessionStatus::Blocked);
        // A blocked session is resumable: new work re-arms the queue.
        session
            .submit(Job::new(EdgeId(0), 5.0, 1.0, 0.0, 0.0))
            .unwrap();
        assert_eq!(session.step().unwrap(), SessionStatus::Advanced);
        assert_eq!(session.now(), Time::new(5.0));
        // Draining while jobs can never finish is the batch stall.
        assert!(matches!(session.drain(), Err(EngineError::Stalled { .. })));
    }

    #[test]
    fn late_submission_runs_now_but_keeps_declared_release() {
        let inst = single_job_instance(1.0, 0.0, 0.0); // edge speed 0.5: done at 2.
        let mut policy = AllEdgeFifo;
        let mut done = Completions::default();
        let mut session = Simulation::of(&inst)
            .policy(&mut policy)
            .observer(&mut done)
            .session();
        assert_eq!(
            session.run_until(Time::new(4.0)).unwrap(),
            SessionStatus::Done
        );
        // `Done` leaves the clock at the last completion (t = 2), and the
        // declared release 1.0 lies in the past: the job starts now.
        assert_eq!(session.now(), Time::new(2.0));
        session
            .submit(Job::new(EdgeId(0), 1.0, 1.0, 0.0, 0.0))
            .unwrap();
        session.drain().unwrap();
        drop(session);
        assert_eq!(done.0.len(), 2);
        let ObsEvent::Completed {
            t,
            release,
            cloud,
            stretch,
            ..
        } = done.0[1]
        else {
            unreachable!("only completions are kept")
        };
        assert_eq!(release, Time::new(1.0));
        assert_eq!(t, Time::new(4.0)); // starts at 2, runs 2.
        assert_eq!(cloud, None);
        // Stretch is measured from the declared release, over the fastest
        // processing time min(t^e, t^c) = min(2, 1): (4 − 1) / 1.
        assert!((stretch - 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_tracks_progress() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 10.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut policy = AllEdgeFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();

        let s = session.snapshot();
        assert_eq!((s.submitted, s.completed, s.unfinished), (2, 0, 2));

        session.run_until(Time::new(5.0)).unwrap();
        let s = session.snapshot();
        assert_eq!((s.submitted, s.completed, s.unfinished), (2, 1, 1));
        assert_eq!(s.pending, 0); // second job not released yet.
        assert_eq!(s.max_stretch, 1.0);

        session.drain().unwrap();
        let s = session.snapshot();
        assert_eq!((s.completed, s.unfinished, s.pending), (2, 0, 0));
        assert_eq!(s.now, Time::new(11.0));
    }

    #[test]
    fn submit_rejects_bad_origin() {
        let inst = single_job_instance(1.0, 0.0, 0.0);
        let mut policy = AllEdgeFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        let bad = Job::new(EdgeId(7), 0.0, 1.0, 0.0, 0.0);
        assert!(matches!(
            session.submit(bad),
            Err(crate::instance::InstanceError::OriginOutOfRange { .. })
        ));
    }

    #[test]
    fn presubmission_can_move_the_start_of_time_backwards() {
        // The instance's only job releases at 10; a pre-start submission
        // at 2 must run first — the clock snaps to the earliest event.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 10.0, 1.0, 0.0, 0.0)]).unwrap();
        let mut policy = AllEdgeFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        session
            .submit(Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0))
            .unwrap();
        session.drain().unwrap();
        let out = session.into_outcome();
        assert_eq!(out.schedule.completion[1], Some(Time::new(3.0)));
        assert_eq!(out.schedule.completion[0], Some(Time::new(11.0)));
    }

    #[test]
    fn retiring_an_idle_session_keeps_ids_and_counters() {
        /// Counts `on_retire` calls and records the job count it saw.
        struct Retiring(Vec<usize>);
        impl OnlineScheduler for Retiring {
            fn name(&self) -> String {
                "retiring".into()
            }
            fn on_retire(&mut self, instance: &Instance) {
                self.0.push(instance.num_jobs());
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
                for j in view.pending_jobs() {
                    out.push(j, Target::Edge);
                }
            }
        }
        /// Every job id an observer event carries, and the completed ones
        /// apart.
        struct Ids(Vec<usize>, Vec<usize>);
        impl Observer for Ids {
            fn on_event(&mut self, event: &ObsEvent) {
                match *event {
                    ObsEvent::JobSubmitted { job, .. } | ObsEvent::JobReleased { job, .. } => {
                        self.0.push(job)
                    }
                    ObsEvent::Completed { job, .. } => {
                        self.0.push(job);
                        self.1.push(job);
                    }
                    _ => {}
                }
            }
        }
        let inst = single_job_instance(1.0, 0.0, 0.0); // edge 0.5: done at 2.
        let mut policy = Retiring(Vec::new());
        let mut ids = Ids(Vec::new(), Vec::new());
        let mut session = Simulation::of(&inst)
            .policy(&mut policy)
            .observer(&mut ids)
            .session();
        session
            .submit(Job::new(EdgeId(0), 0.5, 1.0, 0.0, 0.0))
            .unwrap();
        // Busy: retiring does nothing.
        session.run_until(Time::new(1.0)).unwrap();
        session.retire_finished();
        assert_eq!(session.instance().num_jobs(), 2);
        session.run_until(Time::new(10.0)).unwrap();
        let before = session.snapshot();
        session.retire_finished();
        // Idle: every job is dropped, the counters are kept.
        assert_eq!(session.instance().num_jobs(), 0);
        let after = session.snapshot();
        assert_eq!(after.submitted, 2);
        assert_eq!(
            (after.completed, after.run.events, after.run.decides),
            (before.completed, before.run.events, before.run.decides)
        );
        assert_eq!(after.max_stretch, before.max_stretch);
        // Ids keep counting; the held job is index 0 again.
        let id = session
            .submit(Job::new(EdgeId(0), 20.0, 1.0, 0.0, 0.0))
            .unwrap();
        assert_eq!(id, JobId(2));
        assert_eq!(
            session.submit(Job::new(EdgeId(3), 20.0, 1.0, 0.0, 0.0)),
            Err(crate::instance::InstanceError::OriginOutOfRange { job: 3, origin: 3 })
        );
        session.drain().unwrap();
        assert_eq!(session.snapshot().submitted, 3);
        // The outcome covers the jobs since the retire only.
        let out = session.into_outcome();
        assert_eq!(out.schedule.num_jobs(), 1);
        assert_eq!(out.schedule.completion[0], Some(Time::new(22.0)));
        assert_eq!(policy.0, [0]);
        assert_eq!(ids.0, [1, 0, 1, 0, 1, 2, 2, 2]);
        assert_eq!(ids.1, [0, 1, 2]);
    }

    #[test]
    fn retiring_keeps_the_livelock_cap_of_every_job_submitted() {
        /// Runs jobs without uplink on the edge; flips a job with one
        /// between the two clouds at every decision, forever.
        struct ThrashUplinks {
            calls: u64,
        }
        impl OnlineScheduler for ThrashUplinks {
            fn name(&self) -> String {
                "thrash-uplinks".into()
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
                self.calls += 1;
                for j in view.pending_jobs() {
                    let tgt = if view.job(j).up > 0.0 {
                        Target::Cloud(CloudId((self.calls % 2) as usize))
                    } else {
                        Target::Edge
                    };
                    out.push(j, tgt);
                }
            }
        }
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(2)
            .build();
        let empty = Instance::new(spec, Vec::new()).unwrap();
        for retire in [false, true] {
            let mut policy = ThrashUplinks { calls: 0 };
            let mut session = Simulation::of(&empty).policy(&mut policy).session();
            for r in [0.0, 1.0] {
                session
                    .submit(Job::new(EdgeId(0), r, 0.5, 0.0, 0.0))
                    .unwrap();
            }
            session.drain().unwrap();
            if retire {
                session.retire_finished();
            }
            session
                .submit(Job::new(EdgeId(0), 5.0, 1.0, 1.0, 1.0))
                .unwrap();
            // The cap counts all three jobs, the two retired ones too.
            assert_eq!(
                session.drain(),
                Err(EngineError::EventLimit {
                    limit: 1000 + 64 * 3
                }),
                "retire: {retire}"
            );
        }
    }
}

mod elastic {
    use super::*;
    use crate::state::{PlatformError, PlatformMutation};

    /// Sends every pending job to the first *available* cloud, falling
    /// back to the origin edge — the simplest policy that reacts to
    /// membership changes.
    struct CloudIfUp;
    impl OnlineScheduler for CloudIfUp {
        fn name(&self) -> String {
            "cloud-if-up".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            let target = view
                .spec()
                .clouds()
                .find(|&k| view.cloud_available(k))
                .map_or(Target::Edge, Target::Cloud);
            for j in view.pending_jobs() {
                out.push(j, target);
            }
        }
    }

    fn one_edge_instance(edge_speed: f64, num_cloud: usize) -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![edge_speed])
            .cloud_pool(num_cloud)
            .build();
        Instance::new(spec, Vec::new()).unwrap()
    }

    #[test]
    fn mutations_version_and_reject_typed() {
        let inst = one_edge_instance(1.0, 1);
        let mut policy = CloudIfUp;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        assert_eq!(session.platform().version(), 1);
        assert!(!session.platform().is_dynamic());

        let j = session.add_edge(0.5).unwrap();
        assert_eq!(j, EdgeId(1));
        assert_eq!(session.platform().version(), 2);
        assert!(session.platform().is_dynamic());
        let k = session.add_cloud(2.0).unwrap();
        assert_eq!(k, CloudId(1));
        assert_eq!(session.platform().version(), 3);

        // Typed rejections, none of which burn a version.
        assert!(matches!(
            session.remove_edge(EdgeId(9)),
            Err(PlatformError::UnknownEdge { edge: 9 })
        ));
        assert!(matches!(
            session.set_cloud_speed(CloudId(0), -1.0),
            Err(PlatformError::BadSpeed { .. })
        ));
        session.remove_cloud(CloudId(1)).unwrap();
        assert!(matches!(
            session.remove_cloud(CloudId(1)),
            Err(PlatformError::AlreadyRemoved { .. })
        ));
        session.remove_edge(EdgeId(1)).unwrap();
        assert!(matches!(
            session.remove_edge(EdgeId(0)),
            Err(PlatformError::LastEdge)
        ));
        assert_eq!(session.platform().version(), 5);
        assert_eq!(session.platform().num_edges_live(), 1);
        assert_eq!(session.platform().num_clouds_live(), 1);
    }

    #[test]
    fn submit_to_removed_edge_is_rejected() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0, 1.0])
            .cloud_pool(0)
            .build();
        let inst = Instance::new(spec, Vec::new()).unwrap();
        let mut policy = AllEdgeFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        session.remove_edge(EdgeId(1)).unwrap();
        let job = Job::new(EdgeId(1), 0.0, 1.0, 0.0, 0.0);
        assert!(matches!(
            session.submit(job),
            Err(crate::instance::InstanceError::OriginOutOfRange { .. })
        ));
        // The surviving edge still accepts work.
        session
            .submit(Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0))
            .unwrap();
        session.drain().unwrap();
        assert_eq!(
            session.into_outcome().schedule.completion[0],
            Some(Time::new(1.0))
        );
    }

    #[test]
    fn remove_edge_with_unfinished_jobs_is_origin_in_use() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0, 1.0])
            .cloud_pool(0)
            .build();
        let inst = Instance::new(
            spec,
            vec![
                Job::new(EdgeId(1), 0.0, 5.0, 0.0, 0.0),
                Job::new(EdgeId(1), 0.0, 1.0, 0.0, 0.0),
            ],
        )
        .unwrap();
        let mut policy = AllEdgeFifo;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        assert!(matches!(
            session.remove_edge(EdgeId(1)),
            Err(PlatformError::OriginInUse {
                edge: 1,
                unfinished: 2
            })
        ));
        session.drain().unwrap();
        // Once its jobs finished, the unit may leave.
        session.remove_edge(EdgeId(1)).unwrap();
        assert_eq!(session.platform().version(), 2);
    }

    #[test]
    fn remove_cloud_kills_in_flight_work() {
        let inst = one_edge_instance(1.0, 1);
        let mut policy = CloudIfUp;
        let mut obs = crate::engine::tests::elastic::EventTags::default();
        let mut session = Simulation::of(&inst)
            .policy(&mut policy)
            .observer(&mut obs)
            .session();
        // Cloud route: 1s up + 4s work + 1s down = 6; edge route: 4s.
        session
            .submit(Job::new(EdgeId(0), 0.0, 4.0, 1.0, 1.0))
            .unwrap();
        session.run_until(Time::new(2.0)).unwrap();
        // Mid-work on the cloud (upload finished at 1): the processor
        // leaves, in-flight progress is lost, and the job falls back to
        // the edge for a fresh 4s run.
        session.remove_cloud(CloudId(0)).unwrap();
        session.drain().unwrap();
        let out = session.into_outcome();
        assert_eq!(out.schedule.completion[0], Some(Time::new(6.0)));
        assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
        assert_eq!(out.stats.restarts, 1);
        assert!(obs.0.iter().any(|t| t == "job-killed"));
        assert!(obs.0.iter().any(|t| t == "platform-changed"));
    }

    #[test]
    fn mid_run_cloud_join_rescues_a_slow_edge() {
        // A slow edge grinds at 0.1; a fast cloud joining at t=1 takes
        // over (re-execution from scratch beats staying put).
        let inst = one_edge_instance(0.1, 0);
        let mut policy = CloudIfUp;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        session
            .submit(Job::new(EdgeId(0), 0.0, 1.0, 0.01, 0.01))
            .unwrap();
        session.run_until(Time::new(1.0)).unwrap();
        let k = session.add_cloud(10.0).unwrap();
        assert_eq!(k, CloudId(0));
        session.drain().unwrap();
        let out = session.into_outcome();
        assert_eq!(out.schedule.alloc[0], Some(Target::Cloud(CloudId(0))));
        let c = out.schedule.completion[0].unwrap().seconds();
        // 1 (join) + 0.01 up + 0.1 work + 0.01 down, far below the 10s
        // edge-only completion.
        assert!((c - 1.12).abs() < 1e-9, "completion {c}");
        assert_eq!(out.stats.restarts, 1);
    }

    #[test]
    fn mutations_on_drained_session_are_allowed() {
        let inst = one_edge_instance(1.0, 1);
        let mut policy = CloudIfUp;
        let mut session = Simulation::of(&inst).policy(&mut policy).session();
        session
            .submit(Job::new(EdgeId(0), 0.0, 1.0, 1.0, 1.0))
            .unwrap();
        session.drain().unwrap();
        // A drained session is not dead: the platform can keep evolving
        // and accept more work (serve does exactly this between beats).
        let v = session
            .apply_platform(PlatformMutation::AddCloud { speed: 3.0 })
            .unwrap();
        assert_eq!(v, 2);
        session.remove_cloud(CloudId(0)).unwrap();
        session
            .submit(Job::new(EdgeId(0), 10.0, 1.0, 0.1, 0.1))
            .unwrap();
        session.drain().unwrap();
        let out = session.into_outcome();
        assert_eq!(out.schedule.alloc[1], Some(Target::Cloud(CloudId(1))));
        assert!(out.schedule.all_finished());
    }

    /// Tag-collecting observer shared by the elastic tests.
    #[derive(Default)]
    pub(super) struct EventTags(Vec<String>);
    impl Observer for EventTags {
        fn on_event(&mut self, event: &ObsEvent) {
            self.0.push(event.tag().to_string());
        }
    }
}
