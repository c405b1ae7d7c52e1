//! The **Edge-Only** baseline (paper §V-A).
//!
//! No cloud: every job runs on its origin edge unit. Since edge units are
//! then independent single machines, each one runs the stretch-so-far
//! earliest-deadline-first algorithm of Bender et al. \[3\] (Δ-competitive
//! on one machine): at each release, binary-search the optimal achievable
//! stretch of the released jobs, derive deadlines
//! `d_i = r_i + S_c · min(t^e_i, t^c_i)` — note the edge-cloud correction:
//! the paper computes the stretch denominator against a potential cloud
//! execution even though the job never leaves the edge — and schedule
//! preemptive EDF until the next release.

use crate::bender::{deadline, optimal_stretch_so_far, ReleasedJob};
use mmsec_platform::{
    DecisionCadence, DirectiveBuffer, Instance, JobId, OnlineScheduler, SimView, Target,
};
use mmsec_sim::Time;

/// Edge-Only stretch-so-far EDF policy.
#[derive(Clone, Debug)]
pub struct EdgeOnly {
    /// Multiplier α applied to the optimal stretch-so-far (paper: 1).
    alpha: f64,
    /// Relative precision of the stretch binary search.
    eps_rel: f64,
    /// Cached deadline per job (None until first computed).
    deadlines: Vec<Option<Time>>,
    /// Pending jobs sorted by (deadline, id); kept alive across decide
    /// calls and pruned of finished jobs between recomputes.
    order: Vec<(Time, JobId)>,
    /// Maintain `order` incrementally (default); `false` rebuilds it at
    /// every decide and demotes the policy to
    /// `DecisionCadence::EveryEvent` (equivalence-test reference mode).
    incremental: bool,
    /// Platform version the cached deadlines assume; a mismatch (an edge
    /// re-provisioned, units joined or left) voids them all — deadlines
    /// depend on edge speeds through the processing-time estimates.
    platform_version: u64,
    /// Reused per-decide storage: the units to recompute, one unit's
    /// released jobs, and the feasibility probes' deadline order.
    dirty_units: Vec<usize>,
    released: Vec<ReleasedJob>,
    probe_order: Vec<(f64, usize)>,
}

impl Default for EdgeOnly {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeOnly {
    /// Policy with the paper's parameters (α = 1, ε = 10⁻³).
    pub fn new() -> Self {
        Self::with_params(1.0, 1e-3)
    }

    /// Policy with explicit α and binary-search precision.
    pub fn with_params(alpha: f64, eps_rel: f64) -> Self {
        assert!(alpha > 0.0 && eps_rel > 0.0);
        EdgeOnly {
            alpha,
            eps_rel,
            deadlines: Vec::new(),
            order: Vec::new(),
            incremental: true,
            platform_version: 0,
            dirty_units: Vec::new(),
            released: Vec::new(),
            probe_order: Vec::new(),
        }
    }

    /// Disables the incremental order maintenance *and* decision-epoch
    /// gating: every decide rebuilds the EDF order from scratch.
    /// Schedules are bit-identical to the default mode; used as the
    /// reference in equivalence tests.
    pub fn with_recompute(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Recomputes deadlines for all pending jobs of edge unit `unit`.
    fn recompute_unit(&mut self, view: &SimView<'_>, unit: usize) {
        let spec = view.spec();
        self.released.clear();
        self.released.extend(
            view.pending_jobs()
                .filter(|&id| view.job(id).origin.0 == unit)
                .map(|id| {
                    let job = view.job(id);
                    ReleasedJob {
                        id,
                        release: job.release,
                        proc_time: view.jobs.remaining_work(id.0, job)
                            / spec.edge_speed(job.origin),
                        min_time: view.min_time(id),
                    }
                }),
        );
        if self.released.is_empty() {
            return;
        }
        let s_opt = optimal_stretch_so_far(
            view.now,
            &self.released,
            self.eps_rel,
            &mut self.probe_order,
        );
        let s_c = self.alpha * s_opt;
        for j in &self.released {
            self.deadlines[j.id.0] = Some(deadline(j, s_c));
        }
    }
}

impl OnlineScheduler for EdgeOnly {
    fn name(&self) -> String {
        if self.alpha == 1.0 {
            "edge-only".into()
        } else {
            format!("edge-only(a={})", self.alpha)
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
        self.order.clear();
    }

    fn on_retire(&mut self, _instance: &Instance) {
        self.deadlines.clear();
        self.order.clear();
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Streaming sessions admit jobs after `on_start`.
        if self.deadlines.len() < view.jobs.len() {
            self.deadlines.resize(view.jobs.len(), None);
        }
        // Platform mutation: cached deadlines assume stale speeds — void
        // them so every unit with pending work recomputes below.
        if self.platform_version != view.platform_version() {
            self.platform_version = view.platform_version();
            self.deadlines.fill(None);
            self.order.clear();
        }
        // Units with a newly released job recompute their deadlines
        // (stretch-so-far is re-estimated at release events).
        let mut dirty_units = std::mem::take(&mut self.dirty_units);
        dirty_units.clear();
        dirty_units.extend(
            view.pending_jobs()
                .filter(|id| self.deadlines[id.0].is_none())
                .map(|id| view.job(id).origin.0),
        );
        dirty_units.sort_unstable();
        dirty_units.dedup();
        let recomputed = !dirty_units.is_empty();
        for &unit in &dirty_units {
            self.recompute_unit(view, unit);
        }
        self.dirty_units = dirty_units;

        // Preemptive EDF per unit: a global deadline sort is fine because
        // units share no resources.
        if recomputed || !self.incremental {
            // A recompute rewrote deadlines of whole units: rebuild.
            self.order.clear();
            self.order.extend(view.pending_jobs().map(|id| {
                let d = self.deadlines[id.0].expect("deadline computed above");
                (d, id)
            }));
            self.order.sort();
        } else {
            // Deadlines unchanged since the last call: the order only
            // shrinks by the jobs that completed in between (new releases
            // and platform bumps leave jobs without a deadline, forcing
            // the rebuild branch above).
            self.order.retain(|&(_, id)| !view.jobs.finished[id.0]);
        }
        for &(_, id) in &self.order {
            // Fault injection: don't (re)commit jobs whose origin edge is
            // currently down — they wait, uncommitted, until it recovers.
            if view.edge_available(view.job(id).origin) {
                out.push(id, Target::Edge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        max_stretch, validate, EdgeId, Instance, Job, PlatformSpec, Simulation, StretchReport,
    };

    #[test]
    fn never_uses_cloud() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(4)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 1.0, 0.1, 0.1),
            Job::new(EdgeId(0), 0.0, 2.0, 0.1, 0.1),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut EdgeOnly::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        for a in &out.schedule.alloc {
            assert_eq!(*a, Some(Target::Edge));
        }
    }

    #[test]
    fn intro_example_runs_short_job_first() {
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
            .policy(&mut EdgeOnly::new())
            .run()
            .unwrap();
        // Optimal order: short first → max stretch 1.1.
        let ms = max_stretch(&inst, &out.schedule);
        assert!((ms - 1.1).abs() < 1e-6, "max stretch {ms}");
    }

    #[test]
    fn stretch_denominator_counts_cloud_alternative() {
        // One job, slow edge, cheap cloud alternative (min_time 4 versus
        // 12 locally). Edge-Only still executes locally, so its stretch is
        // 12/4 = 3 even though the schedule is the best possible locally.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0 / 3.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 4.0, 0.0, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut EdgeOnly::new())
            .run()
            .unwrap();
        let ms = max_stretch(&inst, &out.schedule);
        assert!((ms - 3.0).abs() < 1e-9, "max stretch {ms}");
    }

    #[test]
    fn units_are_independent() {
        // Jobs on different units do not delay each other.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0, 1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 5.0, 0.0, 0.0),
            Job::new(EdgeId(1), 0.0, 5.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut EdgeOnly::new())
            .run()
            .unwrap();
        let report = StretchReport::new(&inst, &out.schedule);
        assert!((report.max_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deadlines_reorder_on_new_release() {
        // A long job runs; a short job arrives: its deadline is tighter,
        // EDF preempts the long one.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
            Job::new(EdgeId(0), 1.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut EdgeOnly::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let report = StretchReport::new(&inst, &out.schedule);
        // Short job's stretch stays small; overall max well below the
        // FIFO outcome (which would give the short job stretch 10).
        assert!(
            report.max_stretch < 2.2,
            "max stretch {}",
            report.max_stretch
        );
    }

    #[test]
    fn alpha_parameter_changes_name_and_behavior_is_sane() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.5, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut pol = EdgeOnly::with_params(2.0, 1e-3);
        assert_eq!(pol.name(), "edge-only(a=2)");
        let out = Simulation::of(&inst).policy(&mut pol).run().unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
    }
}
