//! The **SSF-EDF** heuristic (paper §V-D) — stretch-so-far
//! earliest-deadline-first, extended to the edge-cloud platform.
//!
//! At each *release* event:
//! 1. binary-search the smallest target stretch `S` such that the deadline
//!    set `d_i = r_i + S · min(t^e_i, t^c_i)` is *schedulable* by the EDF
//!    placement rule: walk jobs by non-decreasing deadline, assign each to
//!    the processor where the contention-profile projection completes it
//!    earliest, and check every forecast completion against its deadline;
//! 2. fix the plan (deadline order + chosen targets) computed at
//!    `S_c = α · S` (α = 1 in the paper) and follow it until the next
//!    release.
//!
//! EDF is *not* optimal on this platform (the paper gives a two-job
//! counterexample, reproduced in the tests below), so the binary search
//! may settle above the true optimum — SSF-EDF remains a heuristic.
//!
//! A probe's placement depends on its deadlines only through their
//! order: the target rule and the projection never read a deadline. So
//! within one replan, a probe whose EDF id order matches the last placed
//! one reuses its targets and forecast completions and only re-checks
//! them against the new deadlines; most of a binary search's probes
//! differ from their neighbours only in the deadline values. The probes
//! reuse one set of buffers, so a warm replan allocates nothing.

use mmsec_platform::obs::Event as ObsEvent;
use mmsec_platform::projection::Projection;
use mmsec_platform::{
    DecisionCadence, DirectiveBuffer, Instance, JobId, ObserverHandle, OnlineScheduler, SimView,
    Target,
};
use mmsec_sim::Time;

/// SSF-EDF policy.
#[derive(Clone, Debug)]
pub struct SsfEdf {
    /// Deadline multiplier α (paper default 1).
    alpha: f64,
    /// Relative precision ε of the stretch binary search.
    eps_rel: f64,
    /// Plan: deadline per job (valid while it is pending).
    deadlines: Vec<Option<Time>>,
    /// Plan: chosen target per job.
    targets: Vec<Option<Target>>,
    /// Pending jobs sorted by (deadline, id); kept alive across decide
    /// calls and pruned of finished jobs between replans.
    order: Vec<(Time, JobId)>,
    /// Maintain `order` incrementally (default). `false` rebuilds and
    /// re-sorts it at every decide and demotes the policy to
    /// `DecisionCadence::EveryEvent` — the reference mode the
    /// gating-equivalence proptest compares against.
    incremental: bool,
    /// Platform version the current plan was computed against; a mismatch
    /// (units joined, left, or were re-provisioned) voids every deadline
    /// and target, forcing a full replan.
    platform_version: u64,
    /// Sink for `BinarySearchProbe` events, when attached.
    observer: Option<ObserverHandle>,
    /// Reused storage of the replan's feasibility probes.
    probes: Probes,
}

/// Reused storage of one replan's feasibility probes.
#[derive(Clone, Debug, Default)]
struct Probes {
    /// The latest probe's pending jobs as `(deadline, id)`, sorted: its
    /// EDF order.
    order: Vec<(Time, JobId)>,
    /// Target and forecast completion per position of the last order
    /// placed in full during the current replan (empty at its start).
    placed: Vec<(JobId, Target, Time)>,
    /// Forecast profiles, reset before each full placement; dropped in
    /// `on_start`, since a new run's platform may share the version.
    proj: Option<Projection>,
}

impl Default for SsfEdf {
    fn default() -> Self {
        Self::new()
    }
}

impl SsfEdf {
    /// Policy with the paper's parameters (α = 1, ε = 10⁻³).
    pub fn new() -> Self {
        Self::with_params(1.0, 1e-3)
    }

    /// Policy with explicit α and binary-search precision (the α ablation
    /// of the experiment suite).
    pub fn with_params(alpha: f64, eps_rel: f64) -> Self {
        assert!(alpha > 0.0 && eps_rel > 0.0);
        SsfEdf {
            alpha,
            eps_rel,
            deadlines: Vec::new(),
            targets: Vec::new(),
            order: Vec::new(),
            incremental: true,
            platform_version: 0,
            observer: None,
            probes: Probes::default(),
        }
    }

    /// Disables the incremental order maintenance *and* decision-epoch
    /// gating (the policy reports `DecisionCadence::EveryEvent`): every
    /// decide rebuilds the EDF order from scratch. Schedules are
    /// bit-identical to the default mode; used as the reference in
    /// equivalence tests.
    pub fn with_recompute(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// One feasibility probe of the stretch binary search: EDF placement
    /// under target stretch `s`, left in `self.probes` (see the module
    /// docs for when the placement is reused). Returns whether every
    /// deadline was met and reports the probe to the attached observer,
    /// if any.
    fn probe(&mut self, view: &SimView<'_>, s: f64) -> bool {
        let p = &mut self.probes;
        p.order.clear();
        p.order.extend(
            view.pending_jobs()
                .map(|id| (view.deadline_under_stretch(id, s), id)),
        );
        // Ids are unique, so the unstable sort orders exactly as a
        // stable one would, without a scratch buffer.
        p.order.sort_unstable();
        let same_order = p.placed.len() == p.order.len()
            && p.placed
                .iter()
                .zip(&p.order)
                .all(|(&(placed, _, _), &(_, id))| placed == id);
        if !same_order {
            place_in_order(view, &p.order, &mut p.placed, &mut p.proj);
        }
        let feasible = p
            .placed
            .iter()
            .zip(&p.order)
            .all(|(&(_, _, completion), &(d, _))| completion.approx_le(d));
        if let Some(obs) = &self.observer {
            obs.with(|o| {
                o.on_event(&ObsEvent::BinarySearchProbe {
                    t: view.now,
                    stretch: s,
                    feasible,
                })
            });
        }
        feasible
    }

    /// Adopts the latest probe's plan: its deadlines and targets.
    fn adopt_probe(&mut self) {
        let p = &self.probes;
        for (&(deadline, id), &(_, target, _)) in p.order.iter().zip(&p.placed) {
            self.deadlines[id.0] = Some(deadline);
            self.targets[id.0] = Some(target);
        }
    }

    /// The probe as first written, kept as the oracle of [`Self::probe`]:
    /// EDF placement under target stretch `s` on a fresh projection,
    /// returning the plan and whether every deadline was met.
    #[cfg(test)]
    fn try_stretch(&self, view: &SimView<'_>, s: f64) -> Attempt {
        let spec = view.spec();
        let mut jobs: Vec<(Time, JobId)> = view
            .pending_jobs()
            .map(|id| (view.deadline_under_stretch(id, s), id))
            .collect();
        jobs.sort();
        let mut proj = Projection::from_view(view);
        let mut feasible = true;
        let mut plan = Vec::with_capacity(jobs.len());
        for (d, id) in jobs {
            let job = view.job(id);
            let target = choose_target(&proj, view, id, spec);
            let vols = view.jobs.volumes_on(id.0, job, target);
            let completion = proj.place(job, vols, target, spec, view.now);
            if !completion.approx_le(d) {
                feasible = false;
            }
            plan.push(PlanEntry {
                id,
                deadline: d,
                target,
            });
        }
        Attempt { feasible, plan }
    }

    /// Full recomputation at a release event. Every probe covers the
    /// same pending jobs, so adopting a later plan overwrites all of an
    /// earlier one: the plan left is the last one adopted.
    fn replan(&mut self, view: &SimView<'_>) {
        // Lower bound: the stretch each pending job is already forced to
        // (finishing as early as physically possible, alone).
        let mut lo = 1.0f64;
        for id in view.pending_jobs() {
            lo = lo.max(view.forced_stretch(id));
        }
        // Placements of an earlier replan saw another view.
        self.probes.placed.clear();

        if self.probe(view, lo) {
            self.adopt_probe();
            return;
        }
        // Find a feasible upper bound by doubling.
        let mut hi = lo.max(1.0) * 2.0;
        let mut found = false;
        for _ in 0..64 {
            if self.probe(view, hi) {
                found = true;
                break;
            }
            hi *= 2.0;
        }
        if !found {
            // Pathological: never feasible (EDF anomaly). Fall back to
            // the last attempt's ordering as a best effort.
            self.probe(view, hi);
            self.adopt_probe();
            return;
        }
        self.adopt_probe();
        while hi - lo > self.eps_rel * lo {
            let mid = 0.5 * (lo + hi);
            if self.probe(view, mid) {
                hi = mid;
                self.adopt_probe();
            } else {
                lo = mid;
            }
        }
        if self.alpha != 1.0 {
            self.probe(view, self.alpha * hi);
            self.adopt_probe();
        }
    }
}

/// Places `order`'s jobs one by one on fresh forecast profiles, each on
/// its [`choose_target`] pick, recording target and forecast completion
/// per position in `placed`.
fn place_in_order(
    view: &SimView<'_>,
    order: &[(Time, JobId)],
    placed: &mut Vec<(JobId, Target, Time)>,
    proj: &mut Option<Projection>,
) {
    let spec = view.spec();
    let proj = match proj {
        Some(p) => {
            p.reset_for(view);
            p
        }
        None => proj.insert(Projection::from_view(view)),
    };
    placed.clear();
    for &(_, id) in order {
        let job = view.job(id);
        let target = choose_target(proj, view, id, spec);
        let vols = view.jobs.volumes_on(id.0, job, target);
        let completion = proj.place(job, vols, target, spec, view.now);
        placed.push((id, target, completion));
    }
}

#[cfg(test)]
struct PlanEntry {
    id: JobId,
    deadline: Time,
    target: Target,
}

/// Earliest-projected-completion target with a *hysteresis* re-execution
/// guard. Two failure modes bracket the design space: comparing raw
/// projections lets every replan reshuffle in-flight jobs (>100
/// re-executions per 600 jobs, the lost progress dominating the stretch),
/// while an optimistic never-switch bar ratchets jobs onto congested
/// processors they can never leave. The middle ground: a switch must beat
/// the *projected* (queue-aware) continuation by more than the progress
/// the job would throw away.
fn choose_target(
    proj: &Projection,
    view: &SimView<'_>,
    id: JobId,
    spec: &mmsec_platform::PlatformSpec,
) -> Target {
    let (jobs, i) = (view.jobs, id.0);
    let job = view.job(id);
    let committed = jobs.committed[i];
    // Time already invested in the committed attempt (what a switch wastes).
    let sunk = committed.map_or(0.0, |t| jobs.done_time_on(i, job, t, spec));
    // Continuing keeps the committed target's progress; every other
    // target restarts from scratch.
    let kept = committed.map(|t| {
        let c = proj.completion(job, jobs.volumes_on(i, job, t), t, spec, view.now);
        (t, c)
    });
    let bar: Option<Time> = kept.map(|(_, c)| c - Time::new(sunk));
    // Down units (fault injection) are never placement targets.
    let mut best = kept.filter(|&(t, _)| view.target_available(job.origin, t));
    let fresh = (job.up, job.work, job.dn);
    let others = std::iter::once(Target::Edge)
        .chain(spec.clouds().map(Target::Cloud))
        .filter(|&t| committed != Some(t) && view.target_available(job.origin, t));
    for target in others {
        let completion = proj.completion(job, fresh, target, spec, view.now);
        if bar.is_some_and(|b| completion >= b) {
            continue; // gain does not cover the sunk progress
        }
        if best.map_or(true, |(_, c)| completion < c) {
            best = Some((target, completion));
        }
    }
    // Every unit can be down at once under fault injection; park the job on
    // its committed target (or the edge) until something recovers — the
    // engine's resource blocking keeps it from actually starting there.
    best.map_or(committed.unwrap_or(Target::Edge), |(t, _)| t)
}

#[cfg(test)]
struct Attempt {
    feasible: bool,
    plan: Vec<PlanEntry>,
}

impl OnlineScheduler for SsfEdf {
    fn name(&self) -> String {
        if self.alpha == 1.0 {
            "ssf-edf".into()
        } else {
            format!("ssf-edf(a={})", self.alpha)
        }
    }

    fn cadence(&self) -> DecisionCadence {
        if self.incremental {
            DecisionCadence::OnEpochChange
        } else {
            DecisionCadence::EveryEvent
        }
    }

    fn on_start(&mut self, instance: &Instance) {
        self.deadlines = vec![None; instance.num_jobs()];
        self.targets = vec![None; instance.num_jobs()];
        self.order.clear();
        self.probes.proj = None;
    }

    fn on_retire(&mut self, _instance: &Instance) {
        self.deadlines.clear();
        self.targets.clear();
        self.order.clear();
    }

    fn attach_observer(&mut self, observer: ObserverHandle) {
        self.observer = Some(observer);
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Streaming sessions admit jobs after `on_start`.
        if self.deadlines.len() < view.jobs.len() {
            self.deadlines.resize(view.jobs.len(), None);
            self.targets.resize(view.jobs.len(), None);
        }
        // Platform mutation: the plan's targets may point at removed
        // units and its deadlines assume stale speeds — void it all.
        if self.platform_version != view.platform_version() {
            self.platform_version = view.platform_version();
            self.deadlines.fill(None);
            self.targets.fill(None);
            self.order.clear();
        }
        // Release event ⇔ some pending job has no deadline yet.
        let replanned = if view.pending_jobs().any(|id| self.deadlines[id.0].is_none()) {
            self.replan(view);
            true
        } else {
            false
        };
        if replanned || !self.incremental {
            // A replan rewrote every pending deadline: rebuild the order.
            self.order.clear();
            self.order.extend(
                view.pending_jobs()
                    .map(|id| (self.deadlines[id.0].expect("planned"), id)),
            );
            // Unique ids: the unstable sort is the stable order.
            self.order.sort_unstable();
        } else {
            // Deadlines unchanged since the last call: the order only
            // shrinks by the jobs that completed in between. Newly
            // released jobs cannot appear here — they have no deadline
            // yet, which forces the replan branch above — and a platform
            // bump voided every deadline, forcing it too.
            self.order.retain(|&(_, id)| !view.jobs.finished[id.0]);
        }
        for &(_, id) in &self.order {
            out.push(id, self.targets[id.0].expect("planned"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        figure1_instance, max_stretch, validate, CloudId, EdgeId, Instance, Job, PlatformSpec,
        Simulation, StretchReport,
    };

    #[test]
    fn single_job_gets_stretch_one() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 2.0, 10.0, 10.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!((max_stretch(&inst, &out.schedule) - 1.0).abs() < 1e-9);
        assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
    }

    #[test]
    fn paper_edf_counterexample_still_schedules() {
        // §V-D: two jobs w=3 with deadlines 5 and 6 on one cloud
        // (up=dn=... the example uses uplink 1 implicitly): EDF order can
        // miss a deadline that another order meets. SSF-EDF still produces
        // a valid schedule, possibly with a larger stretch.
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 0.0),
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(out.schedule.all_finished());
    }

    #[test]
    fn intro_example_short_first() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        let ms = max_stretch(&inst, &out.schedule);
        assert!((ms - 1.1).abs() < 1e-2, "max stretch {ms}");
    }

    #[test]
    fn figure1_instance_reasonable_stretch() {
        // The optimal max-stretch of the Figure 1 instance is 3/2; SSF-EDF
        // should land reasonably close (it is a heuristic).
        let inst = figure1_instance();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let ms = max_stretch(&inst, &out.schedule);
        assert!(ms < 2.5, "max stretch {ms}");
    }

    #[test]
    fn balances_over_cloud_processors() {
        // Four identical cloud-friendly jobs from different edges, two
        // clouds: the plan must spread them.
        let spec = PlatformSpec::builder()
            .edges(vec![0.05; 4])
            .cloud_pool(2)
            .build();
        let jobs: Vec<_> = (0..4)
            .map(|i| Job::new(EdgeId(i), 0.0, 4.0, 0.5, 0.5))
            .collect();
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let on_cloud0 = out
            .schedule
            .alloc
            .iter()
            .filter(|a| **a == Some(Target::Cloud(CloudId(0))))
            .count();
        let on_cloud1 = out
            .schedule
            .alloc
            .iter()
            .filter(|a| **a == Some(Target::Cloud(CloudId(1))))
            .count();
        assert_eq!(on_cloud0 + on_cloud1, 4, "all jobs offloaded");
        assert_eq!(on_cloud0, 2);
        assert_eq!(on_cloud1, 2);
    }

    #[test]
    fn online_stream_keeps_stretch_bounded() {
        // Staggered stream: SSF-EDF keeps the max-stretch modest.
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.5])
            .cloud_pool(2)
            .build();
        let mut jobs = Vec::new();
        for i in 0..12 {
            jobs.push(Job::new(
                EdgeId(i % 2),
                i as f64 * 1.5,
                2.0 + (i % 3) as f64,
                0.5,
                0.5,
            ));
        }
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let report = StretchReport::new(&inst, &out.schedule);
        assert!(
            report.max_stretch < 3.0,
            "max stretch {}",
            report.max_stretch
        );
    }

    #[test]
    fn alpha_ablation_runs() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5),
            Job::new(EdgeId(0), 1.0, 1.0, 0.5, 0.5),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        for alpha in [0.5, 1.0, 2.0] {
            let mut pol = SsfEdf::with_params(alpha, 1e-3);
            let out = Simulation::of(&inst).policy(&mut pol).run().unwrap();
            assert!(validate(&inst, &out.schedule).is_ok(), "alpha {alpha}");
        }
        assert_eq!(SsfEdf::with_params(2.0, 1e-3).name(), "ssf-edf(a=2)");
    }

    #[test]
    fn is_deterministic() {
        let inst = figure1_instance();
        let a = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        let b = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    mod probe_oracle {
        use super::super::*;
        use mmsec_platform::{
            CloudId, EdgeId, Instance, Job, JobArena, JobState, PendingSet, PlatformSpec,
            PlatformState,
        };
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The buffered probe, with its reuse of an unchanged order's
            /// placement, gives the oracle's verdict and plan: the same
            /// EDF order and deadlines and the same targets, for every
            /// probe of a search over jobs in every commitment/progress
            /// state, with down clouds, on two replans whose instants
            /// move forwards or backwards.
            #[test]
            fn buffered_probes_match_the_oracle(
                job_descs in proptest::collection::vec(
                    (0.0f64..4.0, 0.5f64..8.0, 0.0f64..3.0, 0.0f64..3.0, 0u8..2, 0u8..4),
                    1..12,
                ),
                cloud_down in proptest::collection::vec(any::<bool>(), 3),
                stretches in proptest::collection::vec((1.0f64..40.0, any::<bool>()), 1..10),
                nows in (4.0f64..6.0, 4.0f64..6.0),
            ) {
                let spec = PlatformSpec::builder()
                    .edges(vec![1.0, 0.5])
                    .clouds([1.0, 2.0, 2.0])
                    .build();
                let jobs: Vec<Job> = job_descs
                    .iter()
                    .map(|&(rel, work, up, dn, origin, _)| {
                        Job::new(EdgeId(origin as usize), rel, work, up, dn)
                    })
                    .collect();
                let inst = Instance::new(spec, jobs).unwrap();
                let states: Vec<JobState> = job_descs
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, work, up, _, _, kind))| {
                        let mut st = JobState { released: true, ..JobState::default() };
                        match kind {
                            1 => {
                                st.committed = Some(Target::Edge);
                                st.work_done = 0.5 * work;
                            }
                            2 => {
                                st.committed = Some(Target::Cloud(CloudId(i % 3)));
                                st.up_done = 0.5 * up;
                            }
                            3 => {
                                st.committed = Some(Target::Cloud(CloudId(i % 3)));
                                st.up_done = up;
                                st.work_done = 0.25 * work;
                            }
                            _ => {}
                        }
                        st
                    })
                    .collect();
                let mut platform = PlatformState::new(inst.spec.clone());
                platform.mark_dynamic();
                for (k, _) in cloud_down.iter().enumerate().filter(|(_, &d)| d) {
                    platform.fault_cloud_down(CloudId(k));
                }
                let arena = JobArena::from_states(&inst, &states);
                let pending = PendingSet::from_states(&inst, &states);
                let mut policy = SsfEdf::new();
                for now in [nows.0, nows.1] {
                    let view = SimView::new(&inst, Time::new(now), &arena, &pending, &platform);
                    // A replan starts with no placement to reuse.
                    policy.probes.placed.clear();
                    for &(s, nudge) in &stretches {
                        // A nudged repeat differs only in the deadline
                        // values, so its order usually matches.
                        let probes = if nudge { vec![s, s * (1.0 + 1e-6)] } else { vec![s] };
                        for s in probes {
                            let feasible = policy.probe(&view, s);
                            let oracle = policy.try_stretch(&view, s);
                            prop_assert_eq!(feasible, oracle.feasible, "verdict at stretch {}", s);
                            let p = &policy.probes;
                            prop_assert_eq!(p.order.len(), oracle.plan.len());
                            for (k, entry) in oracle.plan.iter().enumerate() {
                                prop_assert_eq!(p.order[k], (entry.deadline, entry.id));
                                prop_assert_eq!(p.placed[k].0, entry.id);
                                prop_assert_eq!(p.placed[k].1, entry.target, "target of {:?}", entry.id);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hysteresis_switches_only_when_gain_exceeds_sunk_progress() {
        use mmsec_platform::projection::Projection;
        use mmsec_platform::{
            Instance, Job, JobArena, JobState, PendingSet, PlatformState, SimView,
        };
        use mmsec_sim::Time;

        let spec = PlatformSpec::builder()
            .edges(vec![0.01])
            .cloud_pool(2)
            .build();
        // Job: work 4, up 1, dn 1; committed to cloud 0 with its uplink
        // done (sunk = 1), except where a case overrides `up_done`.
        let job = Job::new(EdgeId(0), 0.0, 4.0, 1.0, 1.0);
        let inst = Instance::new(spec, vec![job]).unwrap();
        let state_with_up_done = |up_done: f64| JobState {
            released: true,
            committed: Some(Target::Cloud(CloudId(0))),
            up_done,
            ..JobState::default()
        };

        // Case 1: cloud 0 lightly queued (2 seconds) — continuation
        // projects 2 + 5 = 7 from now; switching to idle cloud 1 projects
        // 6, a gain of 1 which does NOT exceed... it must beat
        // (projected − sunk) = 7 − 1 = 6 strictly: 6 ≥ 6 → stay.
        {
            let states = vec![state_with_up_done(1.0)];
            let arena = JobArena::from_states(&inst, &states);
            let pending = PendingSet::from_states(&inst, &states);
            let platform = PlatformState::new(inst.spec.clone());
            let view = SimView::new(&inst, Time::new(10.0), &arena, &pending, &platform);
            let mut proj = Projection::from_view(&view);
            // Occupy cloud 0's CPU for 2 seconds with a phantom booking.
            let phantom = Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0);
            let fresh = (phantom.up, phantom.work, phantom.dn);
            proj.place(
                &phantom,
                fresh,
                Target::Cloud(CloudId(0)),
                view.spec(),
                view.now,
            );
            let t = super::choose_target(&proj, &view, JobId(0), view.spec());
            assert_eq!(t, Target::Cloud(CloudId(0)), "small gain must not switch");
        }

        // Case 2: cloud 0 deeply queued (10 seconds) — continuation
        // projects 15, bar = 14; fresh cloud 1 projects 6 < 14 → switch.
        {
            let states = vec![state_with_up_done(1.0)];
            let arena = JobArena::from_states(&inst, &states);
            let pending = PendingSet::from_states(&inst, &states);
            let platform = PlatformState::new(inst.spec.clone());
            let view = SimView::new(&inst, Time::new(10.0), &arena, &pending, &platform);
            let mut proj = Projection::from_view(&view);
            let phantom = Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0);
            let fresh = (phantom.up, phantom.work, phantom.dn);
            proj.place(
                &phantom,
                fresh,
                Target::Cloud(CloudId(0)),
                view.spec(),
                view.now,
            );
            let t = super::choose_target(&proj, &view, JobId(0), view.spec());
            assert_eq!(t, Target::Cloud(CloudId(1)), "large gain must switch");
        }

        // Case 3: no progress — free to pick the projected best.
        {
            let states = vec![state_with_up_done(0.0)];
            let arena = JobArena::from_states(&inst, &states);
            let pending = PendingSet::from_states(&inst, &states);
            let platform = PlatformState::new(inst.spec.clone());
            let view = SimView::new(&inst, Time::new(10.0), &arena, &pending, &platform);
            let mut proj = Projection::from_view(&view);
            let phantom = Job::new(EdgeId(0), 0.0, 3.0, 0.0, 0.0);
            let fresh = (phantom.up, phantom.work, phantom.dn);
            proj.place(
                &phantom,
                fresh,
                Target::Cloud(CloudId(0)),
                view.spec(),
                view.now,
            );
            let t = super::choose_target(&proj, &view, JobId(0), view.spec());
            assert_eq!(t, Target::Cloud(CloudId(1)));
        }

        // Case 4: two tiers. Cloud 0 sits one (1, 1) hop out, cloud 1 a
        // further (2, 2) hop out (path factors 3). The job is committed to
        // cloud 1 with its uplink done, which took 1 × 3 = 3 seconds. Cloud
        // 1 queued 1 second: continuation projects 1 + 4 + 1 × 3 = 8, bar
        // = 8 − 3 = 5. Idle cloud 0 fresh projects 1 + 4 + 1 = 6 ≥ 5 →
        // stay. Pricing the sunk uplink at 1 second would lift the bar to
        // 7 and switch.
        {
            let spec = PlatformSpec::builder()
                .edges(vec![0.01])
                .tier(1.0, 1.0)
                .cloud(1.0)
                .tier(2.0, 2.0)
                .cloud(1.0)
                .build();
            let inst = Instance::new(spec, vec![job]).unwrap();
            let states = vec![JobState {
                released: true,
                committed: Some(Target::Cloud(CloudId(1))),
                up_done: 1.0,
                ..JobState::default()
            }];
            let arena = JobArena::from_states(&inst, &states);
            let pending = PendingSet::from_states(&inst, &states);
            let platform = PlatformState::new(inst.spec.clone());
            let view = SimView::new(&inst, Time::new(10.0), &arena, &pending, &platform);
            let mut proj = Projection::from_view(&view);
            let phantom = Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0);
            let fresh = (phantom.up, phantom.work, phantom.dn);
            proj.place(
                &phantom,
                fresh,
                Target::Cloud(CloudId(1)),
                view.spec(),
                view.now,
            );
            let t = super::choose_target(&proj, &view, JobId(0), view.spec());
            assert_eq!(
                t,
                Target::Cloud(CloudId(1)),
                "sunk transfers are priced along the tier path"
            );
        }
    }
}
