//! The **Greedy** heuristic (paper §V-B).
//!
//! At each event, as long as resources remain available: compute, for each
//! pending job, the minimum stretch it could achieve by starting
//! immediately on an available resource; select the job *maximizing* this
//! value (the job most endangering the max-stretch objective) and place it
//! on the resource achieving its minimum; claim the resources and repeat.

use crate::placing::RoundState;
use mmsec_platform::{DirectiveBuffer, Instance, JobId, OnlineScheduler, SimView};

/// Greedy max-imminent-stretch-first policy.
#[derive(Clone, Debug, Default)]
pub struct Greedy {
    /// Reusable list of not-yet-placed jobs for the selection loop.
    unassigned: Vec<JobId>,
    /// Run-long round state, rebuilt in place at each decide; dropped in
    /// `on_start` so a new run (possibly a new platform) starts fresh.
    round: Option<RoundState>,
}

impl Greedy {
    /// Creates the policy.
    pub fn new() -> Self {
        Greedy::default()
    }
}

impl OnlineScheduler for Greedy {
    fn name(&self) -> String {
        "greedy".into()
    }

    fn on_start(&mut self, _instance: &Instance) {
        self.round = None;
    }

    /// Keeps the round: it is shaped by the platform alone, which a
    /// retire keeps, and `RoundState::reset` re-sizes its per-job table.
    fn on_retire(&mut self, _instance: &Instance) {}

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        let round = match self.round.as_mut() {
            Some(r) => {
                r.reset(view);
                r
            }
            None => self.round.insert(RoundState::new(view)),
        };
        let unassigned = &mut self.unassigned;
        unassigned.clear();
        unassigned.extend(view.pending_jobs());

        while !unassigned.is_empty() {
            // For each job: its best immediately startable option. Ties on
            // the stretch are broken towards the job with the smallest
            // dedicated time: among equal current stretches, that job's
            // stretch grows fastest per unit of delay (at rate
            // 1/min_time), so it "might impact most the maximum stretch".
            let mut pick: Option<(usize, JobId, crate::placing::StartOption, f64, f64)> = None;
            for (pos, &id) in unassigned.iter().enumerate() {
                let Some(opt) = round.best_startable(view, id) else {
                    continue;
                };
                let s = view.stretch_if_completed_at(id, opt.completion);
                let mt = view.job(id).min_time(view.spec());
                let better = match &pick {
                    None => true,
                    Some((_, bid, _, bs, bmt)) => {
                        s > *bs || (s == *bs && mt < *bmt) || (s == *bs && mt == *bmt && id < *bid)
                    }
                };
                if better {
                    pick = Some((pos, id, opt, s, mt));
                }
            }
            let Some((pos, id, opt, _, _)) = pick else {
                break; // nothing can start anymore
            };
            // `opt` was computed against the current round (the selection
            // sweep above never mutates it), so the cached phase/forecast
            // can be applied directly instead of recomputed.
            round.claim_option(view, id, &opt);
            out.push(id, opt.target);
            unassigned.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        max_stretch, validate, EdgeId, Instance, Job, PlatformSpec, Simulation, Target,
    };

    #[test]
    fn prioritizes_job_with_worst_imminent_stretch() {
        // One edge (speed 1), no cloud. Two jobs released together: a short
        // one (would reach stretch 2 if delayed) and a long one (barely
        // affected). Greedy must run the short one first... actually at
        // t=0 both estimate stretch 1; greedy picks the max = tie → lowest
        // id. After the first completes, the other runs.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(out.schedule.all_finished());
    }

    #[test]
    fn offloads_to_cloud_when_beneficial() {
        // Slow edge, fast cloud, cheap communications: both jobs go cloud.
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 4.0, 0.1, 0.1),
            Job::new(EdgeId(0), 0.0, 4.0, 0.1, 0.1),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(matches!(out.schedule.alloc[0], Some(Target::Cloud(_))));
        assert!(matches!(out.schedule.alloc[1], Some(Target::Cloud(_))));
        // Two cloud processors: jobs run in parallel, stretches near 1
        // (second uplink serialized behind the first: ≤ (4.3)/4.2).
        let ms = max_stretch(&inst, &out.schedule);
        assert!(ms < 1.1, "max stretch {ms}");
    }

    #[test]
    fn keeps_jobs_local_when_comm_dominates() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 1.0, 50.0, 50.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
        assert!((max_stretch(&inst, &out.schedule) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_cloud_usage_across_edges() {
        // Two edges each with one job; two clouds; communications from
        // different edges proceed in parallel (independent pairs).
        let spec = PlatformSpec::builder()
            .edges(vec![0.1, 0.1])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5),
            Job::new(EdgeId(1), 0.0, 2.0, 0.5, 0.5),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        // Both should finish at 3.0 (fully parallel), stretch 1.
        let ms = max_stretch(&inst, &out.schedule);
        assert!((ms - 1.0).abs() < 1e-9, "max stretch {ms}");
        assert_eq!(out.schedule.completion[0], out.schedule.completion[1]);
    }

    #[test]
    fn respects_cloud_choice_by_id_determinism() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(3)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 1.0, 0.1, 0.1)];
        let inst = Instance::new(spec, jobs).unwrap();
        let a = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        let b = Simulation::of(&inst)
            .policy(&mut Greedy::new())
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
