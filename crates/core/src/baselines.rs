//! Additional baseline policies (not in the paper's evaluation, but useful
//! reference points for the experiment suite and for tests).

use mmsec_platform::projection::Projection;
use mmsec_platform::{
    DecisionCadence, DirectiveBuffer, Instance, OnlineScheduler, SimView, Target,
};
use mmsec_sim::seed::SplitMix64;

/// First-come-first-served: jobs by release date; each job is placed once,
/// on the target with the earliest projected completion at placement time,
/// and never reconsidered.
#[derive(Clone, Debug, Default)]
pub struct Fcfs {
    chosen: Vec<Option<Target>>,
    /// Run-long projection, rebuilt in place only at decides that place a
    /// new job — steady-state decides allocate nothing.
    proj: Option<Projection>,
}

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl OnlineScheduler for Fcfs {
    fn name(&self) -> String {
        "fcfs".into()
    }

    fn cadence(&self) -> DecisionCadence {
        DecisionCadence::OnEpochChange
    }

    fn on_start(&mut self, instance: &Instance) {
        self.chosen = vec![None; instance.num_jobs()];
        self.proj = None;
    }

    fn on_retire(&mut self, _instance: &Instance) {
        self.chosen.clear();
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Streaming sessions admit jobs after `on_start`.
        if self.chosen.len() < view.jobs.len() {
            self.chosen.resize(view.jobs.len(), None);
        }
        let spec = view.spec();
        // `pending_jobs()` iterates in (release, id) order — exactly the
        // FIFO priority this policy wants; no sort needed.
        // Place newly seen jobs with a shared projection so that a burst
        // of simultaneous arrivals spreads over the platform; the
        // projection is (re)initialized lazily, at the first job that
        // actually needs placing this call.
        let mut proj_ready = false;
        for id in view.pending_jobs() {
            let job = view.job(id);
            // Fault injection: a sticky choice whose unit went down is
            // dropped and re-made among the units still up.
            if self.chosen[id.0].is_some_and(|t| !view.target_available(job.origin, t)) {
                self.chosen[id.0] = None;
            }
            if self.chosen[id.0].is_none() {
                if !proj_ready {
                    match self.proj.as_mut() {
                        Some(p) => p.reset_for(view),
                        None => self.proj = Some(Projection::from_view(view)),
                    }
                    proj_ready = true;
                }
                let proj = self.proj.as_mut().expect("initialized above");
                // Earliest projected completion among the units still up;
                // ties prefer the edge, then lower cloud ids.
                let mut best: Option<(Target, mmsec_sim::Time)> = None;
                let live = std::iter::once(Target::Edge)
                    .chain(spec.clouds().map(Target::Cloud))
                    .filter(|&t| view.target_available(job.origin, t));
                for t in live {
                    let c =
                        proj.completion(job, view.jobs.volumes_on(id.0, job, t), t, spec, view.now);
                    if best.map_or(true, |(_, bc)| c < bc) {
                        best = Some((t, c));
                    }
                }
                // Everything down: leave the job unplaced this round.
                let Some((target, _)) = best else { continue };
                let vols = view.jobs.volumes_on(id.0, job, target);
                proj.place(job, vols, target, spec, view.now);
                self.chosen[id.0] = Some(target);
            }
            out.push(id, self.chosen[id.0].expect("placed above"));
        }
    }
}

/// Cloud-Only: the mirror image of Edge-Only — every job is delegated to
/// the cloud, choosing the cloud processor with the earliest projected
/// completion at first placement; FIFO priority.
#[derive(Clone, Debug, Default)]
pub struct CloudOnly {
    chosen: Vec<Option<Target>>,
    /// Run-long projection, rebuilt in place only at decides that place a
    /// new job — steady-state decides allocate nothing.
    proj: Option<Projection>,
}

impl CloudOnly {
    /// Creates the policy.
    pub fn new() -> Self {
        CloudOnly::default()
    }
}

impl OnlineScheduler for CloudOnly {
    fn name(&self) -> String {
        "cloud-only".into()
    }

    fn cadence(&self) -> DecisionCadence {
        DecisionCadence::OnEpochChange
    }

    fn on_start(&mut self, instance: &Instance) {
        self.chosen = vec![None; instance.num_jobs()];
        self.proj = None;
    }

    fn on_retire(&mut self, _instance: &Instance) {
        self.chosen.clear();
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Checked here, against the live platform, rather than in
        // `on_start` against the frozen instance: a mutable session may
        // start cloudless and grow clouds before the first job arrives.
        assert!(
            view.spec().num_cloud() > 0 || view.pending_jobs().next().is_none(),
            "cloud-only policy needs a cloud"
        );
        // Streaming sessions admit jobs after `on_start`.
        if self.chosen.len() < view.jobs.len() {
            self.chosen.resize(view.jobs.len(), None);
        }
        let spec = view.spec();
        let mut proj_ready = false;
        // (release, id) iteration order = FIFO priority.
        for id in view.pending_jobs() {
            // Fault injection: re-pick when the sticky cloud went down.
            if self.chosen[id.0]
                .is_some_and(|t| matches!(t, Target::Cloud(k) if !view.cloud_available(k)))
            {
                self.chosen[id.0] = None;
            }
            if self.chosen[id.0].is_none() {
                if !proj_ready {
                    match self.proj.as_mut() {
                        Some(p) => p.reset_for(view),
                        None => self.proj = Some(Projection::from_view(view)),
                    }
                    proj_ready = true;
                }
                let proj = self.proj.as_mut().expect("initialized above");
                let job = view.job(id);
                let mut best: Option<(Target, mmsec_sim::Time)> = None;
                for k in spec.clouds() {
                    if !view.cloud_available(k) {
                        continue;
                    }
                    let t = Target::Cloud(k);
                    let c =
                        proj.completion(job, view.jobs.volumes_on(id.0, job, t), t, spec, view.now);
                    if best.map_or(true, |(_, bc)| c < bc) {
                        best = Some((t, c));
                    }
                }
                // Every cloud down: leave the job unplaced this round.
                let Some((target, _)) = best else { continue };
                let vols = view.jobs.volumes_on(id.0, job, target);
                proj.place(job, vols, target, spec, view.now);
                self.chosen[id.0] = Some(target);
            }
            out.push(id, self.chosen[id.0].expect("placed above"));
        }
    }
}

/// Random sticky placement with FIFO priority — the weakest sensible
/// baseline; fully deterministic given its seed.
#[derive(Clone, Debug)]
pub struct RandomSticky {
    rng: SplitMix64,
    chosen: Vec<Option<Target>>,
    /// Reused list of the units a job may draw from.
    options: Vec<Target>,
}

impl RandomSticky {
    /// Creates the policy with a seed.
    pub fn new(seed: u64) -> Self {
        RandomSticky {
            rng: SplitMix64::new(seed),
            chosen: Vec::new(),
            options: Vec::new(),
        }
    }
}

impl OnlineScheduler for RandomSticky {
    fn name(&self) -> String {
        "random".into()
    }

    fn cadence(&self) -> DecisionCadence {
        // Draws happen only for newly released or fault-displaced jobs —
        // both epoch bumps — so the RNG stream (and thus the schedule) is
        // identical with gating on or off.
        DecisionCadence::OnEpochChange
    }

    fn on_start(&mut self, instance: &Instance) {
        self.chosen = vec![None; instance.num_jobs()];
    }

    fn on_retire(&mut self, _instance: &Instance) {
        self.chosen.clear();
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Streaming sessions admit jobs after `on_start`.
        if self.chosen.len() < view.jobs.len() {
            self.chosen.resize(view.jobs.len(), None);
        }
        let spec = view.spec();
        // (release, id) iteration order = FIFO priority; it also fixes the
        // order in which new jobs draw from the RNG, keeping the policy
        // deterministic per seed.
        for id in view.pending_jobs() {
            let origin = view.job(id).origin;
            // Fault injection: re-draw when the sticky unit went down.
            if self.chosen[id.0].is_some_and(|t| !view.target_available(origin, t)) {
                self.chosen[id.0] = None;
            }
            if self.chosen[id.0].is_none() {
                // Draw among the units currently up. With no fault plan
                // every unit is up, so the option list — and thus the RNG
                // stream — is identical to the fault-free policy.
                let options = &mut self.options;
                options.clear();
                if view.edge_available(origin) {
                    options.push(Target::Edge);
                }
                for k in spec.clouds() {
                    if view.cloud_available(k) {
                        options.push(Target::Cloud(k));
                    }
                }
                // Everything down: leave the job unplaced this round
                // (without consuming a random draw).
                if options.is_empty() {
                    continue;
                }
                let pick = (self.rng.next_u64() as usize) % options.len();
                self.chosen[id.0] = Some(options[pick]);
            }
            out.push(id, self.chosen[id.0].expect("placed above"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{validate, EdgeId, Instance, Job, PlatformSpec, Simulation};

    fn instance() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.1])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5),
            Job::new(EdgeId(1), 0.0, 4.0, 0.2, 0.2),
            Job::new(EdgeId(0), 1.0, 1.0, 3.0, 3.0),
            Job::new(EdgeId(1), 2.0, 3.0, 0.1, 0.1),
        ];
        Instance::new(spec, jobs).unwrap()
    }

    #[test]
    fn fcfs_completes_and_validates() {
        let inst = instance();
        let out = Simulation::of(&inst)
            .policy(&mut Fcfs::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(out.schedule.all_finished());
        // FCFS never re-executes (sticky placement).
        assert_eq!(out.stats.restarts, 0);
    }

    #[test]
    fn cloud_only_uses_only_cloud() {
        let inst = instance();
        let out = Simulation::of(&inst)
            .policy(&mut CloudOnly::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        for a in &out.schedule.alloc {
            assert!(matches!(a, Some(Target::Cloud(_))));
        }
    }

    #[test]
    #[should_panic(expected = "needs a cloud")]
    fn cloud_only_requires_cloud() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)]).unwrap();
        let _ = Simulation::of(&inst).policy(&mut CloudOnly::new()).run();
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let inst = instance();
        let a = Simulation::of(&inst)
            .policy(&mut RandomSticky::new(7))
            .run()
            .unwrap();
        let b = Simulation::of(&inst)
            .policy(&mut RandomSticky::new(7))
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert!(validate(&inst, &a.schedule).is_ok());
    }

    #[test]
    fn fcfs_spreads_simultaneous_burst() {
        // Four cloud-friendly jobs at t=0, two clouds: shared projection
        // must not pile them all on cloud 0.
        let spec = PlatformSpec::builder()
            .edges(vec![0.05; 4])
            .cloud_pool(2)
            .build();
        let jobs: Vec<_> = (0..4)
            .map(|i| Job::new(EdgeId(i), 0.0, 4.0, 0.5, 0.5))
            .collect();
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Fcfs::new())
            .run()
            .unwrap();
        let cloud0 = out
            .schedule
            .alloc
            .iter()
            .filter(|a| **a == Some(Target::Cloud(mmsec_platform::CloudId(0))))
            .count();
        assert_eq!(cloud0, 2);
    }
}
