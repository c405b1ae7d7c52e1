//! The **SRPT** heuristic (paper §V-C).
//!
//! Shortest Remaining Processing Time, adapted to the edge-cloud setting:
//! at each event, repeatedly choose the (job, processor) pair that can
//! complete the earliest and claim it, until no job can start. Migration
//! is impossible, but a preempted job may *re-execute from scratch* on
//! another processor when that is how it finishes first — the from-scratch
//! penalty is part of the completion estimate.

use crate::placing::{RoundState, StartOption};
use mmsec_platform::{DirectiveBuffer, Instance, JobId, OnlineScheduler, SimView};
use mmsec_sim::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One lazy-heap entry: the (completion, id) key the job was filed under,
/// plus the full [`StartOption`] it came from and the round's claim count
/// when it was computed. If the count is unchanged at pop time, the cached
/// option is exact (nothing mutated the round since) and the recompute is
/// skipped entirely; otherwise it is refreshed as before. Ordering is by
/// key alone — keys are unique (they embed the id), so `Eq`/`Ord` on the
/// key is a total order over entries.
#[derive(Clone, Debug)]
struct HeapEntry {
    key: Reverse<(Time, JobId)>,
    tag: u32,
    opt: StartOption,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Earliest-estimated-completion-first policy.
#[derive(Clone, Debug, Default)]
pub struct Srpt {
    /// Reusable min-heap keyed by (completion, id), kept across events so
    /// the decide hot path reuses its backing allocation.
    heap: BinaryHeap<HeapEntry>,
    /// Run-long round state, rebuilt in place at each decide; dropped in
    /// `on_start` so a new run (possibly a new platform) starts fresh.
    round: Option<RoundState>,
}

impl Srpt {
    /// Creates the policy.
    pub fn new() -> Self {
        Srpt::default()
    }
}

impl OnlineScheduler for Srpt {
    fn name(&self) -> String {
        "srpt".into()
    }

    fn on_start(&mut self, _instance: &Instance) {
        self.round = None;
    }

    /// Repeatedly picks the globally earliest-completing (job, target)
    /// pair with a *lazy* min-heap: within one round, every claim only
    /// pushes estimates later (the projection's free times move forward,
    /// resources only become busier), so a popped entry whose refreshed
    /// estimate still beats the heap's next key is the true minimum. This
    /// replaces the quadratic rescans of the naive matching loop — the
    /// reason SRPT stays fast under load while Greedy does not (§VI-B).
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        let round = match self.round.as_mut() {
            Some(r) => {
                r.reset(view);
                r
            }
            None => self.round.insert(RoundState::new(view)),
        };
        // Min-heap keyed by (completion, id); ties resolve to smaller id,
        // matching the exact scan.
        self.heap.clear();
        for id in view.pending_jobs() {
            if let Some(opt) = round.best_startable(view, id) {
                self.heap.push(HeapEntry {
                    key: Reverse((opt.completion, id)),
                    tag: round.claim_count(),
                    opt,
                });
            }
        }
        while let Some(entry) = self.heap.pop() {
            let Reverse((_, id)) = entry.key;
            // Repair the cached option against only what the claims since
            // the entry was computed actually wrote (usually nothing this
            // job reads, or one or two clouds to re-score); the full
            // rescan runs only when the interference can't be localized.
            let Some(opt) = round.refresh_option(view, id, entry.tag, &entry.opt) else {
                continue; // can no longer start in this round
            };
            let tag = round.claim_count();
            let is_min = self.heap.peek().map_or(true, |next| {
                let Reverse((nc, nid)) = next.key;
                opt.completion < nc || (opt.completion == nc && id < nid)
            });
            if is_min {
                round.claim_option(view, id, &opt);
                out.push(id, opt.target);
            } else {
                self.heap.push(HeapEntry {
                    key: Reverse((opt.completion, id)),
                    tag,
                    opt,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        max_stretch, validate, EdgeId, Instance, Job, PlatformSpec, Simulation, StretchReport,
        Target,
    };

    #[test]
    fn short_jobs_jump_the_queue() {
        // One unit-speed edge, no cloud. A long job starts; a short job
        // released later preempts it (its remaining time is smaller).
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
            Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        // Short job runs [2,3), long job [0,2) ∪ [3,11).
        assert_eq!(out.schedule.completion[1], Some(mmsec_sim::Time::new(3.0)));
        assert_eq!(out.schedule.completion[0], Some(mmsec_sim::Time::new(11.0)));
        let report = StretchReport::new(&inst, &out.schedule);
        assert!((report.stretches[1] - 1.0).abs() < 1e-9);
        assert!((report.stretches[0] - 1.1).abs() < 1e-9);
    }

    #[test]
    fn long_job_can_starve_behind_stream_of_short_ones() {
        // The known weakness of SRPT for MAX-stretch (§V-C): a long job is
        // repeatedly preempted by short jobs and its stretch grows.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let mut jobs = vec![Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0)];
        for i in 0..20 {
            jobs.push(Job::new(EdgeId(0), i as f64, 1.0, 0.0, 0.0));
        }
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let report = StretchReport::new(&inst, &out.schedule);
        // The long job's stretch far exceeds the short ones'.
        assert!(report.stretches[0] > 2.0);
        assert_eq!(report.argmax, Some(mmsec_platform::JobId(0)));
    }

    #[test]
    fn picks_cloud_for_cloud_friendly_jobs() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 5.0, 0.5, 0.5)];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        assert!(matches!(out.schedule.alloc[0], Some(Target::Cloud(_))));
        assert!((max_stretch(&inst, &out.schedule) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reexecution_when_beneficial() {
        // Job A computes on the single cloud; a tiny job B arrives and
        // preempts the cloud CPU; meanwhile A's best completion may be a
        // fresh start on the edge... construct a case where SRPT restarts
        // a job and the result still validates.
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 6.0, 3.0, 3.0),   // cloud 12, edge 6
            Job::new(EdgeId(0), 1.0, 1.0, 10.0, 10.0), // must run on edge
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(out.schedule.all_finished());
    }

    /// Reference SRPT: the identical selection loop, but every popped
    /// entry is recomputed unconditionally — no claim-count tag, no
    /// `refresh_option` delta repair. The production policy's caching
    /// must be invisible against it.
    struct SrptNaive {
        round: Option<RoundState>,
    }

    impl OnlineScheduler for SrptNaive {
        fn name(&self) -> String {
            "srpt-naive".into()
        }

        fn on_start(&mut self, _instance: &Instance) {
            self.round = None;
        }

        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            let round = match self.round.as_mut() {
                Some(r) => {
                    r.reset(view);
                    r
                }
                None => self.round.insert(RoundState::new(view)),
            };
            let mut heap: BinaryHeap<Reverse<(Time, JobId)>> = BinaryHeap::new();
            for id in view.pending_jobs() {
                if let Some(opt) = round.best_startable(view, id) {
                    heap.push(Reverse((opt.completion, id)));
                }
            }
            while let Some(Reverse((_, id))) = heap.pop() {
                let Some(opt) = round.best_startable(view, id) else {
                    continue;
                };
                let is_min = heap.peek().map_or(true, |&Reverse((nc, nid))| {
                    opt.completion < nc || (opt.completion == nc && id < nid)
                });
                if is_min {
                    round.claim(view, id, opt.target);
                    out.push(id, opt.target);
                } else {
                    heap.push(Reverse((opt.completion, id)));
                }
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_instance() -> impl Strategy<Value = Instance> {
            (
                1usize..4,                                 // edges
                0usize..4,                                 // clouds
                proptest::collection::vec(0.2f64..2.5, 3), // cloud speed pool
                proptest::collection::vec(
                    (
                        0.0f64..16.0, // release
                        0.1f64..6.0,  // work
                        0.0f64..4.0,  // up
                        0.0f64..4.0,  // dn
                        0usize..4,    // origin
                    ),
                    1..12,
                ),
                proptest::collection::vec(0.1f64..1.2, 1..4), // edge speeds
            )
                .prop_map(|(ne, nc, cloud_pool, raw_jobs, speeds)| {
                    let mut edge_speeds = speeds;
                    edge_speeds.resize(ne, 0.5);
                    // Repeating pool entries produce speed classes with
                    // several members — the scan's sharing path.
                    let cloud_speeds: Vec<f64> =
                        (0..nc).map(|k| cloud_pool[k % cloud_pool.len()]).collect();
                    let spec = PlatformSpec::builder()
                        .edges(edge_speeds)
                        .clouds(cloud_speeds)
                        .build();
                    let jobs = raw_jobs
                        .into_iter()
                        .map(|(r, w, up, dn, o)| Job::new(EdgeId(o % ne), r, w, up, dn))
                        .collect();
                    Instance::new(spec, jobs).expect("generated instance valid")
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// End-to-end schedule equality: the lazy heap with the
            /// claim-count tag and the `refresh_option` delta repair
            /// versus the recompute-every-pop reference.
            #[test]
            fn caching_matches_naive_recompute(inst in arb_instance()) {
                let fast = Simulation::of(&inst)
                    .policy(&mut Srpt::new())
                    .run()
                    .unwrap();
                let naive = Simulation::of(&inst)
                    .policy(&mut SrptNaive { round: None })
                    .run()
                    .unwrap();
                prop_assert_eq!(fast.schedule, naive.schedule);
            }
        }
    }

    #[test]
    fn is_deterministic() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.2])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 1.0),
            Job::new(EdgeId(1), 0.5, 2.0, 0.2, 0.2),
            Job::new(EdgeId(0), 1.0, 1.0, 5.0, 5.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let a = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        let b = Simulation::of(&inst)
            .policy(&mut Srpt::new())
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
